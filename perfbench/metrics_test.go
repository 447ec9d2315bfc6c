package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/obs"
	"repro/internal/server"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(got, tc.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", tc.n, got, tc.n-rank(got, tc.n))
		}
	}
}

func TestSummarizeTakesMediansOverRounds(t *testing.T) {
	ramp := func(n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n-i) * scale // 1..n, reversed
		}
		return xs
	}
	// The smallest round (200 samples) sets the percentile: p95.
	l, err := summarize([][]float64{ramp(200, 1), ramp(400, 2), ramp(1000, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if l.n != 1600 || l.rounds != 3 || l.pct != 95 {
		t.Errorf("summarize = %+v, want 1600 samples, 3 rounds, p95", l)
	}
	// Round p50s: 100, 400, 1500; round p95s: 190, 760, 2850.
	if l.p50 != 400 || l.tail != 760 {
		t.Errorf("p50 %v, tail %v; want 400, 760", l.p50, l.tail)
	}
	if _, err := summarize([][]float64{ramp(200, 1), ramp(15, 1)}); err == nil {
		t.Error("a 15-sample round must not support a tail")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{name: "run.set", parent: -1, start: 0, end: 100},
		{name: "core.Detect", parent: 0, start: 10, end: 40},
		{name: "core.DetectParallel", parent: 0, start: 30, end: 60}, // overlaps its sibling
		{name: "ctl.Parse", parent: 0, start: 90, end: 120},          // clipped at the parent's end
		{name: "pir.Compile", parent: 1, start: 15, end: 20},
		{name: "client.send", parent: -1, start: 200, end: 150}, // never ended
	}
	self := selfTimes(spans)
	want := []int64{100 - (60 - 10) - (100 - 90), 30 - 5, 30, 30, 5, 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, self[i], want[i])
		}
	}
	layers := layerSelf(spans)
	for layer, ns := range map[string]int64{"unattributed": 40, "core": 25 + 30, "ctl": 30, "pir": 5} {
		if got := layers[layer] * 1e9; int64(got+0.5) != ns {
			t.Errorf("layer %s self = %v ns, want %d", layer, got, ns)
		}
	}
}

func TestProgramSpansLinkByID(t *testing.T) {
	r := newRecorder()
	ts := r.origin.UTC().Format("2006-01-02T15:04:05.999999999Z07:00")
	r.addProgram([]obs.SpanRecord{
		{TS: ts, Span: "frame", DurUS: 10, ID: "s-2", Parent: "s-1"},
		{TS: ts, Span: "session", DurUS: 100, ID: "s-1"},
		{TS: ts, Span: "apply", DurUS: 4, ID: "s-3", Parent: "s-2"},
	})
	if len(r.spans) != 3 || r.spans[0].parent != 1 || r.spans[1].parent != -1 || r.spans[2].parent != 0 {
		t.Fatalf("spans = %+v", r.spans)
	}
	layers := layerSelf(r.spans)
	if got := layers["server"] * 1e6; int64(got+0.5) != 10 {
		t.Errorf("server self = %v us, want 10 (frame 6 + apply 4)", got)
	}
	if got := layers["idle"] * 1e6; int64(got+0.5) != 90 {
		t.Errorf("session idle = %v us, want 90", got)
	}
}

func TestClusterUnattributedIsAckMinusStageSum(t *testing.T) {
	tot := &streamTotals{
		stageFrame: map[string][]float64{
			"decode":  {1000, 3000, 2000}, // ns; median 2000
			"enqueue": {500},
			"apply":   {10000, 20000}, // median 15000
			"verdict": {1e9},          // not on the ack path
		},
		stage: map[string][]float64{"decode": {1e9}}, // per event, not per frame
	}
	if got, want := stageSumMs(tot), (2000+500+15000)/1e6; math.Abs(got-want) > 1e-12 {
		t.Errorf("stage sum = %v ms, want %v", got, want)
	}
}

func TestAlignPadEndsOnAckCadence(t *testing.T) {
	for seq := int64(0); seq < 100; seq += 7 {
		for _, n := range []int{ackEvery, 1000, 40960, 40961} {
			pad := alignPad(seq, n)
			frames := int64(pad + (n-pad+batchSize-1)/batchSize)
			if (seq+frames)%ackEvery != 0 {
				t.Errorf("seq %d, %d events: pad %d ends on seq %d", seq, n, pad, seq+frames)
			}
		}
	}
}

// oracleFixture generates a small stream and the verdict frames a
// correct server would push for it, taken from the oracle itself.
func oracleFixture(t *testing.T) (*prefixOracle, stream, []server.ServerFrame) {
	t.Helper()
	st := genStream(rand.New(rand.NewSource(7)), 4, 400, 3, 2, 100, 300)
	o, err := newPrefixOracle(st)
	if err != nil {
		t.Fatal(err)
	}
	var frames []server.ServerFrame
	for i, w := range st.watches {
		formula := w.Op + "(" + w.Pred + ")"
		for k := 1; k <= len(st.evs); k++ {
			r, err := o.detect(formula, k)
			if err != nil {
				t.Fatal(err)
			}
			if r.Holds == (w.Op == "EF") {
				ev, err := o.detect(st.evidence[i], k)
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, server.ServerFrame{Type: server.FrameVerdict, Watch: i, Op: w.Op,
					Event: k, Cut: ev.Witness[0]})
				break
			}
		}
	}
	if len(frames) != 5 {
		t.Fatalf("%d planned watches latched, want 5", len(frames))
	}
	return o, st, frames
}

func TestOracleAcceptsCorrectVerdicts(t *testing.T) {
	o, st, frames := oracleFixture(t)
	if errs := checkVerdicts(o, st, frames); len(errs) != 0 {
		t.Fatalf("correct verdicts rejected: %v", errs)
	}
	for i, fr := range frames {
		if fr.Event != st.planned[fr.Watch] {
			t.Errorf("watch %d latched at %d, planned %d", i, fr.Event, st.planned[fr.Watch])
		}
	}
}

func TestOracleRejectsWrongVerdicts(t *testing.T) {
	o, st, frames := oracleFixture(t)
	for name, mutate := range map[string]func([]server.ServerFrame) []server.ServerFrame{
		"late":      func(f []server.ServerFrame) []server.ServerFrame { f[0].Event++; return f },
		"early":     func(f []server.ServerFrame) []server.ServerFrame { f[3].Event--; return f },
		"wrong cut": func(f []server.ServerFrame) []server.ServerFrame { f[1].Cut[0]++; return f },
		"missing":   func(f []server.ServerFrame) []server.ServerFrame { return f[1:] },
		"spurious": func(f []server.ServerFrame) []server.ServerFrame {
			return append(f, server.ServerFrame{Type: server.FrameVerdict, Watch: len(st.watches) - 1,
				Event: 50, Cut: computation.Cut{1, 1, 1, 1}})
		},
		"error frame": func(f []server.ServerFrame) []server.ServerFrame {
			return append(f, server.ServerFrame{Type: server.FrameError, Error: "rejected"})
		},
	} {
		bad := make([]server.ServerFrame, len(frames))
		copy(bad, frames)
		for i := range bad {
			bad[i].Cut = append(computation.Cut(nil), frames[i].Cut...)
		}
		if errs := checkVerdicts(o, st, mutate(bad)); len(errs) == 0 {
			t.Errorf("%s verdict accepted", name)
		}
	}
}

func TestOracleRejectsWrongSnapshot(t *testing.T) {
	o, _, _ := oracleFixture(t)
	formula := snapFormulas[0]
	r, err := o.detect(formula, 200)
	if err != nil {
		t.Fatal(err)
	}
	good := snapAnswer{formula, 200, r.Holds, r.Algorithm}
	if err := checkSnapshot(o, good); err != nil {
		t.Fatalf("correct snapshot rejected: %v", err)
	}
	for _, bad := range []snapAnswer{
		{formula, 200, !r.Holds, r.Algorithm},
		{formula, 200, r.Holds, "EF arbitrary: exponential search"},
	} {
		if checkSnapshot(o, bad) == nil {
			t.Errorf("wrong snapshot %+v accepted", bad)
		}
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric and
// workload tables this command prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []m, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), printed %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer())
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok && w.Name != "offline-table1" {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if got := strings.Join(names, ","); got != "offline-table1,stream-ndjson-snapshot,stream-binary-rf2" {
		t.Errorf("workloads = %s", got)
	}
}
