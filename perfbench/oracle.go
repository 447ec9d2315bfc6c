package main

import (
	"fmt"
	"reflect"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/server"
	"repro/internal/trace"
)

// This file is the benchmark's correctness oracle. Every answer the
// program gives during a measured run is checked here against offline
// core.Detect on the same generated computation; any disagreement counts
// as a failed operation and fails the command.

// samePair checks that Detect and DetectParallel agree bit for bit: the
// verdict, the algorithm, the evidence and every work counter. Only the
// wall-clock fields (Duration, SliceBuild) may differ.
func samePair(seq, par core.Result) error {
	switch {
	case seq.Holds != par.Holds:
		return fmt.Errorf("holds: Detect %v, DetectParallel %v", seq.Holds, par.Holds)
	case seq.Algorithm != par.Algorithm:
		return fmt.Errorf("algorithm: Detect %q, DetectParallel %q", seq.Algorithm, par.Algorithm)
	case !reflect.DeepEqual(seq.Witness, par.Witness):
		return fmt.Errorf("witness: Detect %v, DetectParallel %v", seq.Witness, par.Witness)
	case !reflect.DeepEqual(seq.Counterexample, par.Counterexample):
		return fmt.Errorf("counterexample: Detect %v, DetectParallel %v", seq.Counterexample, par.Counterexample)
	}
	a, b := *seq.Stats, *par.Stats
	a.Duration, b.Duration = 0, 0
	a.SliceBuild, b.SliceBuild = 0, 0
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("work counts: Detect %+v, DetectParallel %+v", a, b)
	}
	return nil
}

// prefixOracle answers core.Detect on prefixes of one generated stream,
// memoized by (formula, prefix length).
type prefixOracle struct {
	comp *computation.Computation
	cuts []computation.Cut
	memo map[string]core.Result
}

func newPrefixOracle(st stream) (*prefixOracle, error) {
	comp, err := buildStream(st)
	if err != nil {
		return nil, err
	}
	return &prefixOracle{comp: comp, cuts: prefixCuts(st.n, st.evs), memo: map[string]core.Result{}}, nil
}

// detect decides formula on the prefix of the first k streamed events.
func (o *prefixOracle) detect(formula string, k int) (core.Result, error) {
	key := fmt.Sprintf("%d|%s", k, formula)
	if r, ok := o.memo[key]; ok {
		return r, nil
	}
	if k < 0 || k >= len(o.cuts) {
		return core.Result{}, fmt.Errorf("prefix %d outside the stream of %d events", k, len(o.cuts)-1)
	}
	f, err := ctl.Parse(formula)
	if err != nil {
		return core.Result{}, err
	}
	r, err := core.Detect(o.comp.Prefix(o.cuts[k]), f)
	if err != nil {
		return core.Result{}, err
	}
	o.memo[key] = r
	return r, nil
}

// checkVerdicts compares one session's pushed frames with offline
// detection: every watch that latched must have latched at exactly the
// determining prefix (the formula's verdict flips between Event-1 and
// Event events) with the offline witness cut of its evidence formula,
// and every watch that did not latch must not hold on the whole stream. It returns one error per
// mismatching watch.
func checkVerdicts(o *prefixOracle, st stream, frames []server.ServerFrame) []error {
	var errs []error
	got := make(map[int]server.ServerFrame)
	for _, fr := range frames {
		switch {
		case fr.Type == server.FrameError:
			errs = append(errs, fmt.Errorf("error frame: %s", fr.Error))
		case fr.Type != server.FrameVerdict:
		case fr.Watch < 0 || fr.Watch >= len(st.watches):
			errs = append(errs, fmt.Errorf("verdict for unknown watch %d", fr.Watch))
		default:
			if _, dup := got[fr.Watch]; dup {
				errs = append(errs, fmt.Errorf("watch %d latched twice", fr.Watch))
			}
			got[fr.Watch] = fr
		}
	}
	for i, w := range st.watches {
		if err := checkWatch(o, w, st.evidence[i], got, i, st.planned[i], len(st.evs)); err != nil {
			errs = append(errs, fmt.Errorf("watch %d %s(%s): %v", i, w.Op, w.Pred, err))
		}
	}
	return errs
}

func checkWatch(o *prefixOracle, w server.Watch, evidence string, got map[int]server.ServerFrame, i, planned, total int) error {
	formula := w.Op + "(" + w.Pred + ")"
	// A latched EF verdict means the formula holds; a latched AG verdict
	// means it does not.
	latchedHolds := w.Op == "EF"
	fr, ok := got[i]
	if !ok {
		full, err := o.detect(formula, total)
		if err != nil {
			return err
		}
		if full.Holds == latchedHolds {
			return fmt.Errorf("never latched, but offline %s = %v on all %d events", formula, full.Holds, total)
		}
		if planned != 0 {
			return fmt.Errorf("never latched; the generator planned event %d", planned)
		}
		return nil
	}
	k := fr.Event
	at, err := o.detect(formula, k)
	if err != nil {
		return err
	}
	before, err := o.detect(formula, k-1)
	if err != nil {
		return err
	}
	if at.Holds != latchedHolds || before.Holds == latchedHolds {
		return fmt.Errorf("latched at event %d, but offline holds=%v there and %v one event earlier", k, at.Holds, before.Holds)
	}
	ev, err := o.detect(evidence, k)
	if err != nil {
		return err
	}
	if !ev.Holds || len(ev.Witness) == 0 {
		return fmt.Errorf("latched at event %d, but offline %s has no witness there", k, evidence)
	}
	if !reflect.DeepEqual([]int(fr.Cut), []int(ev.Witness[0])) {
		return fmt.Errorf("latched cut %v, offline %s witness %v", fr.Cut, evidence, ev.Witness[0])
	}
	if planned != 0 && k != planned {
		return fmt.Errorf("latched at event %d; the generator planned event %d", k, planned)
	}
	return nil
}

// snapAnswer is one snapshot response observed during the run.
type snapAnswer struct {
	formula   string
	event     int
	holds     bool
	algorithm string
}

// checkSnapshot compares one snapshot answer with offline detection on
// the prefix its Event field names.
func checkSnapshot(o *prefixOracle, a snapAnswer) error {
	r, err := o.detect(a.formula, a.event)
	if err != nil {
		return err
	}
	if r.Holds != a.holds || r.Algorithm != a.algorithm {
		return fmt.Errorf("snapshot %s at event %d: server holds=%v (%s), offline holds=%v (%s)",
			a.formula, a.event, a.holds, a.algorithm, r.Holds, r.Algorithm)
	}
	return nil
}

// buildStream builds the offline computation of a whole generated stream.
func buildStream(st stream) (*computation.Computation, error) {
	return trace.Build(toFile(st.n, st.evs))
}
