package etsc

import "testing"

// TestEDSCDebugStats logs mined-shapelet statistics; it never fails and
// exists to make threshold-method tuning observable.
func TestEDSCDebugStats(t *testing.T) {
	train, _ := gunPointSplit(t)
	for _, method := range []ThresholdMethod{CHE, KDE} {
		e, err := newEDSC(train, DefaultEDSCConfig(method), 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d shapelets", method, len(e.Shapelets))
		for i, sh := range e.Shapelets {
			if i >= 8 {
				break
			}
			t.Logf("  label=%d len=%d thr=%.3f util=%.3f prec=%.2f src=%d off=%d",
				sh.Label, len(sh.Data), sh.Threshold, sh.Utility, sh.Precision, sh.Source, sh.Offset)
		}
	}
}
