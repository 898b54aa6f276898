package ts

import (
	"math"
	"math/rand"
	"testing"
)

func randSeries(rng *rand.Rand, n int) Series {
	s := make(Series, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func TestPrefixDistBankMatchesPerSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := randSeries(rng, 120)
	refs := make([][]float64, 9)
	for i := range refs {
		refs[i] = randSeries(rng, 120)
	}
	b := NewPrefixDistBank(refs)
	if b.Size() != len(refs) {
		t.Fatalf("Size = %d, want %d", b.Size(), len(refs))
	}
	for at := 0; at < len(q); at += 5 {
		end := at + 5
		b.Extend(q[at:end])
		for i, ref := range refs {
			want := SquaredEuclidean(q[:end], ref[:end])
			if b.D2()[i] != want {
				t.Fatalf("ref %d length %d: bank %v != from-scratch %v", i, end, b.D2()[i], want)
			}
		}
		wantIdx, wantD2 := -1, math.Inf(1)
		for i, d := range b.D2() {
			if d < wantD2 {
				wantIdx, wantD2 = i, d
			}
		}
		idx, d2 := b.Min()
		if idx != wantIdx || d2 != wantD2 {
			t.Fatalf("Min = (%d, %v), want (%d, %v)", idx, d2, wantIdx, wantD2)
		}
	}
}

func TestPrefixDistBankEmpty(t *testing.T) {
	b := NewPrefixDistBank(nil)
	b.Extend([]float64{1, 2, 3})
	if idx, d2 := b.Min(); idx != -1 || !math.IsInf(d2, 1) {
		t.Fatalf("empty bank Min = (%d, %v), want (-1, +Inf)", idx, d2)
	}
}
