package core

import (
	"slices"

	"repro/internal/computation"
	"repro/internal/predicate"
)

// EGLinear is Algorithm A1 of the paper: it detects EG(p) — controllable p
// — for a linear predicate p in O(n|E|) predicate evaluations.
//
// Starting from the final cut, the algorithm repeatedly moves to any
// predecessor cut that satisfies p. Theorem 2 shows that for linear
// predicates the arbitrary choice is safe: if any p-satisfying path from ∅
// to E exists, every run of this loop finds one, because the meet of the
// chosen cut with a cut on the real path is again a satisfying cut one
// step closer to ∅ (Lemma 1).
//
// The returned path, when ok, is a full maximal cut sequence
// ∅ = G0 ▷ … ▷ Gl = E with p true at every cut.
func EGLinear(comp *computation.Computation, p predicate.Predicate) (path []computation.Cut, ok bool) {
	return egLinear(comp, p, nil)
}

func egLinear(comp *computation.Computation, p predicate.Predicate, st *Stats) (path []computation.Cut, ok bool) {
	steps, ok := egWalk(comp, p, comp.FinalCut(), true, st, nil)
	if !ok {
		return nil, false
	}
	return walkPath(comp.N(), steps), true
}

// EGPostLinear is the dual of Algorithm A1 for post-linear predicates: it
// walks from the initial cut towards the final cut, moving at each step to
// any successor cut satisfying p. The paper notes the same arbitrary-choice
// argument applies by lattice duality.
func EGPostLinear(comp *computation.Computation, p predicate.Predicate) (path []computation.Cut, ok bool) {
	return egPostLinear(comp, p, nil)
}

func egPostLinear(comp *computation.Computation, p predicate.Predicate, st *Stats) (path []computation.Cut, ok bool) {
	steps, ok := egWalk(comp, p, comp.InitialCut(), false, st, nil)
	if !ok {
		return nil, false
	}
	return walkPath(comp.N(), steps), true
}

// abandonEvery is how many A1 steps pass between polls of the abandon
// callback: often enough that a cancelled branch stops within
// microseconds, rarely enough that the poll does not show in the step cost.
const abandonEvery = 256

// egWalk is the one kernel of Algorithm A1 (down) and its post-linear dual
// (up). It starts at the cut w, which it consumes as scratch, and moves one
// event at a time to the first predecessor (successor) cut in process order
// satisfying p, until it reaches ∅ (down) or E (up; w must then be ∅).
// Only the process of each step is recorded: on success steps lists, in
// order from ∅, the process whose event each cut of the path adds, and
// walkPath lays the path out. A down walk from w visits only cuts below
// w, where comp and comp.Prefix(w) agree, so A3 runs it on comp directly.
//
// abandon, when non-nil, is polled every abandonEvery steps; when it
// reports true the walk stops with ok false and its Stats are incomplete
// (the caller discards them).
func egWalk(comp *computation.Computation, p predicate.Predicate, w computation.Cut, down bool, st *Stats, abandon func() bool) (steps []int32, ok bool) {
	// Step 1: the starting cut itself must satisfy p.
	st.cuts(1)
	st.evals(1)
	if !p.Eval(comp, w) {
		return nil, false
	}
	remaining, delta := w.Size(), -1
	if !down {
		remaining, delta = comp.TotalEvents()-remaining, 1
	}
	// Steps 2–6: move one event at a time.
	for s := 0; s < remaining; s++ {
		if abandon != nil && s%abandonEvery == abandonEvery-1 && abandon() {
			return nil, false
		}
		found := false
		for i := range w {
			if down && !comp.MaximalEvent(w, i) || !down && !comp.EnabledEvent(w, i) {
				continue
			}
			w[i] += delta
			st.cuts(1)
			st.evals(1)
			if p.Eval(comp, w) {
				steps = append(steps, int32(i))
				found = true
				break
			}
			w[i] -= delta
		}
		if !found {
			return nil, false
		}
		st.advance(1)
	}
	// Step 7 is implicit: the walk only reaches its end through satisfying
	// cuts.
	if down {
		slices.Reverse(steps)
	}
	return steps, true
}

// walkPath lays out the path of a successful egWalk: the cut sequence that
// starts at ∅ and adds one event of process steps[t] at step t, in one
// row-major slab. Each cut is capacity-capped to its row, and the path has
// room for one more cut (A3 appends I_q).
func walkPath(n int, steps []int32) []computation.Cut {
	slab := make([]int, (len(steps)+1)*n)
	path := make([]computation.Cut, len(steps)+1, len(steps)+2)
	path[0] = slab[:n:n]
	for t, i := range steps {
		row := slab[(t+1)*n : (t+2)*n : (t+2)*n]
		copy(row, path[t])
		row[i]++
		path[t+1] = row
	}
	return path
}

// EGLinearBacktracking is the ablation counterpart of A1: instead of
// trusting Theorem 2's arbitrary-choice argument it backtracks over every
// predecessor choice, memoizing failures. It returns identical answers on
// every input (tests verify this) at worst-case exponential cost — the
// point of the ablation bench.
func EGLinearBacktracking(comp *computation.Computation, p predicate.Predicate) bool {
	w := comp.FinalCut()
	if !p.Eval(comp, w) {
		return false
	}
	initial := comp.InitialCut()
	failed := make(map[string]bool)
	var down func(w computation.Cut) bool
	down = func(w computation.Cut) bool {
		if w.Equal(initial) {
			return true
		}
		key := w.Key()
		if failed[key] {
			return false
		}
		for i := range w {
			if !comp.MaximalEvent(w, i) {
				continue
			}
			w[i]--
			if p.Eval(comp, w) && down(w) {
				w[i]++
				return true
			}
			w[i]++
		}
		failed[key] = true
		return false
	}
	return down(w)
}
