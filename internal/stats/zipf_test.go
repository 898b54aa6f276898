package stats

import "testing"

func TestZipfPMFSums(t *testing.T) {
	z, err := NewZipf(1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for r := 1; r <= 100; r++ {
		sum += z.PMF(r)
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Errorf("PMF sums to %v", sum)
	}
	if z.PMF(0) != 0 || z.PMF(101) != 0 {
		t.Error("out-of-range PMF should be 0")
	}
}

func TestZipfMonotone(t *testing.T) {
	z, err := NewZipf(1.2, 50)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 50; r++ {
		if z.PMF(r) < z.PMF(r+1) {
			t.Fatalf("PMF not decreasing at rank %d", r)
		}
	}
}

func TestZipfFrequencyRatio(t *testing.T) {
	z, err := NewZipf(1.0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// With s=1, rank 10 is 10x more frequent than rank 100.
	if got := z.FrequencyRatio(10, 100); !almostEqual(got, 10, 1e-9) {
		t.Errorf("ratio = %v, want 10", got)
	}
	if got := z.FrequencyRatio(1, 0); got <= 0 {
		t.Errorf("unknown rank ratio = %v, want +Inf", got)
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(1, 0); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewZipf(-1, 10); err == nil {
		t.Error("negative exponent should error")
	}
}
