package core

import (
	"repro/internal/computation"
	"repro/internal/predicate"
)

// AGLinear is Algorithm A2 of the paper: it detects AG(p) — invariant p —
// for a linear predicate p by evaluating p only at the meet-irreducible
// elements of the lattice and at the final cut.
//
// By Birkhoff's representation theorem every non-top element of a finite
// distributive lattice is the meet of the meet-irreducible elements above
// it (Corollary 4), and a linear predicate is closed under meets; so p
// holds everywhere iff it holds at M(L) ∪ {E}. The meet-irreducible
// elements are computed directly from the computation as E − ↑e for each
// event e — |E| cuts in O(n|E|) total — without constructing the lattice.
//
// When the invariant fails, the returned cut is a consistent counterexample
// cut violating p.
func AGLinear(comp *computation.Computation, p predicate.Predicate) (counterexample computation.Cut, ok bool) {
	return agLinear(comp, p, nil)
}

func agLinear(comp *computation.Computation, p predicate.Predicate, st *Stats) (counterexample computation.Cut, ok bool) {
	return irreducibleSweep(comp, p, st, 1, true)
}

// AGPostLinear is the dual of Algorithm A2: a post-linear predicate is
// closed under joins, and every non-bottom element is the join of the
// join-irreducible elements below it (the down-sets ↓e), so AG(p) holds iff
// p holds at every ↓e and at the initial cut.
func AGPostLinear(comp *computation.Computation, p predicate.Predicate) (counterexample computation.Cut, ok bool) {
	return agPostLinear(comp, p, nil)
}

func agPostLinear(comp *computation.Computation, p predicate.Predicate, st *Stats) (counterexample computation.Cut, ok bool) {
	return irreducibleSweep(comp, p, st, 1, false)
}

// irreducibleSweep is the one kernel of Algorithm A2 (meet) and its
// post-linear dual (!meet): p must hold at the top E (the bottom ∅) and at
// each of the |E| meet-irreducible cuts E − ↑e (join-irreducible cuts ↓e),
// swept in the canonical event order over up to workers goroutines. Each
// worker reuses one scratch cut — a MeetWalk, or a copy of e's clock row —
// so the sweep allocates nothing per cut; only the counterexample, the
// first failing cut in canonical order, is materialized. Stats are derived
// from the hit index, so they equal the inline sweep's at every worker
// count.
func irreducibleSweep(comp *computation.Computation, p predicate.Predicate, st *Stats, workers int, meet bool) (counterexample computation.Cut, ok bool) {
	top := comp.InitialCut()
	if meet {
		top = comp.FinalCut()
	}
	if !p.Eval(comp, top) {
		st.cuts(1)
		st.evals(1)
		return top, false
	}
	total := comp.TotalEvents()
	hit := sweep(total, workers, func(func(int) bool) func(int) bool {
		var walk *computation.MeetWalk
		var down computation.Cut
		if meet {
			walk = comp.NewMeetWalk()
		} else {
			down = computation.NewCut(comp.N())
		}
		at := eventCursor{comp: comp}
		return func(idx int) bool {
			i, k := at.locate(idx)
			c := down
			if meet {
				c = walk.At(i, k)
			} else {
				copy(down, comp.Event(i, k).Clock)
			}
			return !p.Eval(comp, c)
		}
	})
	if hit == total {
		st.cuts(int64(total) + 1)
		st.evals(int64(total) + 1)
		return nil, true
	}
	// The top cut plus irreducibles 0..hit: exactly the inline sweep's work.
	st.cuts(int64(hit) + 2)
	st.evals(int64(hit) + 2)
	at := eventCursor{comp: comp}
	e := comp.Event(at.locate(hit))
	if meet {
		return comp.UpSetComplement(e), false
	}
	return comp.DownSet(e), false
}

// MeetIrreducibles returns the meet-irreducible cuts of the lattice of comp
// by the Birkhoff formula M(e) = E − ↑e, one per event, without building
// the lattice. The ablation bench compares this against degree-counting on
// the explicit lattice.
func MeetIrreducibles(comp *computation.Computation) []computation.Cut {
	var out []computation.Cut
	for i := 0; i < comp.N(); i++ {
		for _, e := range comp.Events(i) {
			out = append(out, comp.UpSetComplement(e))
		}
	}
	return out
}

// JoinIrreducibles returns the join-irreducible cuts ↓e, one per event.
func JoinIrreducibles(comp *computation.Computation) []computation.Cut {
	var out []computation.Cut
	for i := 0; i < comp.N(); i++ {
		for _, e := range comp.Events(i) {
			out = append(out, comp.DownSet(e))
		}
	}
	return out
}
