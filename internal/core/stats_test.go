package core

import (
	"testing"
	"time"

	"repro/internal/ctl"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestDetectSpanCoversRun checks that the per-run detect span is as long
// as the run it reports: the span is emitted after detection finishes,
// so it must be backdated to the run's start rather than start at emit
// time with a near-zero duration.
func TestDetectSpanCoversRun(t *testing.T) {
	comp, err := sim.FromSpec("mutex:n=4,rounds=8")
	if err != nil {
		t.Fatal(err)
	}
	const src = "EF(crit@P1 == 1 || crit@P2 == 1)"
	f, err := ctl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewSpanRing(64)
	SetTracer(obs.NewTracer(nil).Mirror(ring))
	defer SetTracer(nil)
	r, err := Detect(comp, f)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Duration < time.Microsecond {
		t.Fatalf("run too short to measure: %v", r.Stats.Duration)
	}
	spans, _ := ring.Snapshot()
	for _, sp := range spans {
		if sp.Span != "detect" || sp.Attrs["formula"] != f.String() {
			continue
		}
		if sp.DurUS < r.Stats.Duration.Microseconds() {
			t.Fatalf("detect span lasts %dµs, shorter than the %v run", sp.DurUS, r.Stats.Duration)
		}
		return
	}
	t.Fatalf("no detect span for %s among %d spans", src, len(spans))
}
