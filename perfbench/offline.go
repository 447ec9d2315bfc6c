package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/explore"
	"repro/internal/pir"
	"repro/internal/trace"
)

// Offline workload sizes. The wide and narrow traces carry the
// polynomial cells; the small ones the slice-routed EF(conj ∧ arbitrary)
// cell, whose search is exponential in the slice.
const (
	bigEvents    = 20000
	narrowProcs  = 4
	wideProcs    = 16
	smallTraces  = 128
	smallProcs   = 3
	smallEvents  = 40
	miniEvents   = 16 // the explore cross-check instance
	setupRepeats = 5
)

// offlineTask is one trace with the formulas decided on it.
type offlineTask struct {
	comp  *computation.Computation
	cells []cell
}

// runOffline is the offline-table1 workload: seeded traces serialized to
// trace JSON, loaded back through trace.Decode (set-up), then the whole
// trace × formula × {Detect, DetectParallel} set decided over and over
// for the run's measuring time.
func runOffline(rng *rand.Rand, seconds float64, rec *recorder, res *result) {
	big := [][]byte{
		offlineTrace(rng, narrowProcs, bigEvents),
		offlineTrace(rng, wideProcs, bigEvents),
	}
	small := make([][]byte, smallTraces)
	for i := range small {
		small[i] = offlineTrace(rng, smallProcs, smallEvents)
	}
	mini := offlineTrace(rng, narrowProcs, miniEvents)
	all := append(append([][]byte{}, big...), small...)
	heap0 := liveHeap()

	// Set-up: decode every trace, several times; the last load is kept.
	var comps []*computation.Computation
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		comps = comps[:0]
		root := rec.begin("run.setup", -1)
		start := time.Now()
		for _, b := range all {
			sp := rec.begin("trace.Decode", root)
			c, err := trace.Decode(bytes.NewReader(b))
			rec.end(sp)
			if err != nil {
				res.fail("decode: %v", err)
				return
			}
			comps = append(comps, c)
		}
		setups = append(setups, time.Since(start).Seconds())
		rec.end(root)
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["retained_heap_mb"] = (liveHeap() - heap0) / (1 << 20)
	if rec != nil {
		build := buildProbe(all, rec)
		res.layer["trace.decode_s"] = res.e2e["setup_s"] - build
		res.layer["computation.build_s"] = build
	}

	var tasks []offlineTask
	for i, c := range comps {
		if i < len(big) {
			tasks = append(tasks, offlineTask{c, bigCells})
		} else {
			tasks = append(tasks, offlineTask{c, []cell{sliceCell}})
		}
	}
	measureOffline(tasks, seconds, rec, res)
	crossCheck(mini, small[0], res)
}

// buildProbe times trace.Build alone on the already-parsed files, so the
// traced run can split trace.Decode into JSON decoding and computation
// building (vector clocks included). It returns the median Build total
// over the files, in seconds.
func buildProbe(all [][]byte, rec *recorder) float64 {
	files := make([]trace.File, len(all))
	for i, b := range all {
		if err := json.Unmarshal(b, &files[i]); err != nil {
			panic("perfbench: generated trace does not parse: " + err.Error())
		}
	}
	var builds []float64
	for r := 0; r < setupRepeats; r++ {
		root := rec.begin("run.build", -1)
		start := time.Now()
		for _, f := range files {
			sp := rec.begin("computation.Build", root)
			if _, err := trace.Build(f); err != nil {
				panic("perfbench: generated trace does not build: " + err.Error())
			}
			rec.end(sp)
		}
		builds = append(builds, time.Since(start).Seconds())
		rec.end(root)
	}
	return median(builds)
}

// cellTotals accumulates one cell's work across the measured sets.
type cellTotals struct {
	seconds     float64
	cuts, evals int64
	sliceBuild  float64
	kept, elim  int64
	sliceCuts   int64
}

func measureOffline(tasks []offlineTask, seconds float64, rec *recorder, res *result) {
	workers := runtime.NumCPU()
	var events int64 // events swept by one full set
	for _, t := range tasks {
		events += 2 * int64(len(t.cells)) * int64(t.comp.TotalEvents())
	}
	totals := map[string]*cellTotals{}
	first := map[string]core.Result{}
	type decision struct {
		task     int
		cell     cell
		seq, par core.Result
	}
	var sets, parse, compile, seqS, parS []float64
	var calls [][]float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(sets) < 3 || time.Now().Before(deadline) {
		var done []decision
		var setCalls []float64
		root := rec.begin("run.set", -1)
		setStart := time.Now()
		var setParse, setCompile, setSeq, setPar float64
		for ti, t := range tasks {
			for _, c := range t.cells {
				sp := rec.begin("ctl.Parse", root)
				t0 := time.Now()
				f, err := ctl.Parse(c.formula)
				setParse += time.Since(t0).Seconds()
				rec.end(sp)
				if err != nil {
					res.fail("parse %s: %v", c.formula, err)
					return
				}
				if rec != nil {
					sp := rec.begin("pir.Compile", root)
					t0 := time.Now()
					if err := compileOperands(t.comp, f); err != nil {
						res.fail("compile %s: %v", c.formula, err)
						return
					}
					setCompile += time.Since(t0).Seconds()
					rec.end(sp)
				}
				sp = rec.begin("core.Detect", root)
				t0 = time.Now()
				seq, err := core.Detect(t.comp, f)
				d1 := time.Since(t0).Seconds()
				rec.end(sp)
				sp = rec.begin("core.DetectParallel", root)
				t0 = time.Now()
				par, err2 := core.DetectParallel(t.comp, f, workers)
				d2 := time.Since(t0).Seconds()
				rec.end(sp)
				if err != nil || err2 != nil {
					res.fail("detect %s: %v / %v", c.formula, err, err2)
					return
				}
				setCalls = append(setCalls, d1*1e3, d2*1e3)
				setSeq += d1
				setPar += d2
				done = append(done, decision{ti, c, seq, par})
				ct := totals[c.name]
				if ct == nil {
					ct = &cellTotals{}
					totals[c.name] = ct
				}
				ct.seconds += d1 + d2
			}
		}
		sets = append(sets, time.Since(setStart).Seconds())
		calls = append(calls, setCalls)
		rec.end(root)
		parse = append(parse, setParse)
		compile = append(compile, setCompile)
		seqS = append(seqS, setSeq)
		parS = append(parS, setPar)

		// Outside the timed set: the oracle and the work counts.
		for _, d := range done {
			res.attempted += 2
			if err := samePair(d.seq, d.par); err != nil {
				res.fail("%s on trace %d: %v", d.cell.name, d.task, err)
			}
			key := fmt.Sprintf("%d/%s", d.task, d.cell.name)
			if ref, ok := first[key]; !ok {
				first[key] = d.seq
				if d.task < 3 {
					res.note("trace %d %-9s holds=%-5v %-60s cuts=%d evals=%d", d.task, d.cell.name,
						d.seq.Holds, d.seq.Algorithm, d.seq.Stats.CutsVisited, d.seq.Stats.PredicateEvals)
				}
			} else if err := samePair(ref, d.seq); err != nil {
				res.fail("%s on trace %d is not deterministic across sets: %v", d.cell.name, d.task, err)
			}
			ct, st := totals[d.cell.name], d.seq.Stats
			ct.cuts += st.CutsVisited
			ct.evals += st.PredicateEvals
			ct.sliceBuild += st.SliceBuild.Seconds()
			ct.kept += st.SliceEventsKept
			ct.elim += st.SliceEventsEliminated
			ct.sliceCuts += st.SliceCutsEnumerated
		}
	}
	n := float64(len(sets))
	res.e2e["events_per_s"] = float64(events) / median(sets)
	res.verdicts = calls
	res.layer["ctl.parse_s"] = median(parse)
	res.layer["pir.compile_s"] = median(compile)
	res.layer["core.seq_s"] = median(seqS)
	res.layer["core.parallel_s"] = median(parS)
	for _, name := range cellNames {
		ct := totals[name]
		if ct == nil {
			continue
		}
		res.layer["core."+name+".s"] = ct.seconds / n
		res.layer["core."+name+".cuts_visited"] = float64(ct.cuts) / n
		res.layer["core."+name+".predicate_evals"] = float64(ct.evals) / n
	}
	if s := totals[sliceCell.name]; s != nil {
		res.layer["slice.build_s"] = s.sliceBuild / n
		res.layer["slice.events_kept"] = float64(s.kept) / n
		res.layer["slice.events_eliminated"] = float64(s.elim) / n
		if s.kept+s.elim > 0 {
			res.layer["slice.kept_ratio"] = float64(s.kept) / float64(s.kept+s.elim)
		}
		res.layer["slice.cuts_enumerated"] = float64(s.sliceCuts) / n
	}
}

// compileOperands runs what Detect does before dispatch for every
// temporal operator of f: compile the operand to its predicate IR and
// bind it to the computation.
func compileOperands(comp *computation.Computation, f ctl.Formula) error {
	var ops []ctl.Formula
	switch g := f.(type) {
	case ctl.Not:
		return compileOperands(comp, g.F)
	case ctl.And:
		if err := compileOperands(comp, g.L); err != nil {
			return err
		}
		return compileOperands(comp, g.R)
	case ctl.Or:
		if err := compileOperands(comp, g.L); err != nil {
			return err
		}
		return compileOperands(comp, g.R)
	case ctl.EF:
		ops = []ctl.Formula{g.F}
	case ctl.AF:
		ops = []ctl.Formula{g.F}
	case ctl.EG:
		ops = []ctl.Formula{g.F}
	case ctl.AG:
		ops = []ctl.Formula{g.F}
	case ctl.EU:
		ops = []ctl.Formula{g.P, g.Q}
	case ctl.AU:
		ops = []ctl.Formula{g.P, g.Q}
	}
	for _, op := range ops {
		p, err := pir.Compile(op)
		if err != nil {
			return err
		}
		p.Bind(comp)
	}
	return nil
}

// crossCheck decides every cell's formula on small instances from the
// same seed with both core.Detect and the explicit-lattice explore
// checker; any disagreement is a failure.
func crossCheck(mini, small []byte, res *result) {
	check := func(b []byte, cells []cell) {
		comp, err := trace.Decode(bytes.NewReader(b))
		if err != nil {
			res.fail("decode cross-check instance: %v", err)
			return
		}
		for _, c := range cells {
			f := ctl.MustParse(c.formula)
			r, err := core.Detect(comp, f)
			want, err2 := explore.HoldsComp(comp, f)
			res.attempted++
			switch {
			case err != nil || err2 != nil:
				res.fail("cross-check %s: %v / %v", c.name, err, err2)
			case r.Holds != want:
				res.fail("cross-check %s: core.Detect %v, explore %v", c.name, r.Holds, want)
			}
		}
	}
	check(mini, bigCells)
	check(small, []cell{sliceCell})
}

// liveHeap returns the live heap in bytes after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}
