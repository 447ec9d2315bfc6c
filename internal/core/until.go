package core

import (
	"repro/internal/computation"
	"repro/internal/predicate"
)

// EUConjLinear is Algorithm A3 of the paper: it detects E[p U q] for a
// conjunctive predicate p and a linear predicate q in polynomial time.
//
// By Theorem 7 it suffices to look for a path from ∅ to I_q — the least
// consistent cut satisfying q — with p holding at every cut strictly below
// I_q. Step 1 finds I_q by the advancement algorithm; Step 2 checks EG(p)
// with Algorithm A1 on the sub-computations I_q − {e} for each maximal
// event e of I_q (every path into I_q passes through one of them).
//
// The returned path, when ok, runs ∅ … I_q with q at the last cut and p at
// all earlier ones. As the paper's footnote notes, q need not be fully
// linear: the Linear interface only exercises the least-satisfying-cut
// property.
func EUConjLinear(comp *computation.Computation, p predicate.Conjunctive, q predicate.Linear) (path []computation.Cut, ok bool) {
	return euConjLinear(comp, p, q, nil)
}

func euConjLinear(comp *computation.Computation, p predicate.Predicate, q predicate.Linear, st *Stats) (path []computation.Cut, ok bool) {
	return euConjLinearParallel(comp, p, q, st, 1)
}

// euConjLinearParallel is the one kernel of Algorithm A3; p is evaluated as
// given, so detection passes the bound (bitset) form of the conjunctive
// predicate. Step 2's branches — A1 from I_q − e for each maximal event e
// of I_q, in process order — run over up to workers goroutines, each on a
// scratch cut of comp itself: a down walk from g only visits cuts below g,
// where comp and comp.Prefix(g) agree, so no sub-computation is built.
//
// The witness is the one of the first succeeding branch in process order,
// laid out once the sweep has decided it. A branch above a succeeding one
// can no longer win, so it abandons its walk at the next periodic poll.
// Per-branch Stats are merged only for the branches the inline run
// executes (up to and including the winner), which always run to
// completion, so the totals equal the inline run's at every worker count.
func euConjLinearParallel(comp *computation.Computation, p predicate.Predicate, q predicate.Linear, st *Stats, workers int) (path []computation.Cut, ok bool) {
	// Step 1: find I_q (inherently sequential; shares st with the caller).
	iq, ok := leastCut(comp, q, st)
	if !ok {
		return nil, false // q holds nowhere, so no until-prefix can end
	}
	if iq.Size() == 0 {
		return []computation.Cut{iq}, true // q holds initially (k = 0 prefix)
	}
	// Step 2: EG(p) below each maximal event of I_q.
	var branches []int
	for i := range iq {
		if comp.MaximalEvent(iq, i) {
			branches = append(branches, i)
		}
	}
	steps := make([][]int32, len(branches))
	stats := make([]Stats, len(branches))
	k := sweep(len(branches), workers, func(lost func(int) bool) func(int) bool {
		w := computation.NewCut(len(iq))
		return func(b int) bool {
			copy(w, iq)
			w[branches[b]]--
			var holds bool
			steps[b], holds = egWalk(comp, p, w, true, &stats[b], func() bool { return lost(b) })
			return holds
		}
	})
	for b := 0; b <= min(k, len(branches)-1); b++ {
		st.merge(&stats[b])
	}
	if k == len(branches) {
		return nil, false
	}
	// Only the winner's path is laid out; extend it through I_q itself.
	return append(walkPath(len(iq), steps[k]), iq), true
}

// (The footnote to Theorem 7 is honored by construction: EUConjLinear only
// exercises q's least-satisfying-cut property through LeastCut, so any
// Linear implementation whose Forbidden is sound — even for a predicate
// whose satisfying set is not meet-closed but has a least element — is
// detected correctly. TestA3FootnoteLeastCutProperty pins this.)

// AUDisjunctive detects A[p U q] for disjunctive predicates p and q using
// the paper's composition
//
//	A[p U q] ⟺ ¬( EG(¬q) ∨ E[¬q U (¬p ∧ ¬q)] )
//
// where ¬q is conjunctive (detected by Algorithm A1 under EG) and
// ¬p ∧ ¬q is conjunctive, hence linear (detected by Algorithm A3 under EU).
// Total cost O(n|E|) predicate evaluations.
func AUDisjunctive(comp *computation.Computation, p, q predicate.Disjunctive) bool {
	return auDisjunctive(comp, p, q, nil, 1)
}

func auDisjunctive(comp *computation.Computation, p, q predicate.Disjunctive, st *Stats, workers int) bool {
	notQ := q.Negate()
	if _, eg := egLinear(comp, notQ, st); eg {
		return false // some full path avoids q entirely
	}
	bad := predicate.MergeConj(p.Negate(), notQ)
	if _, eu := euConjLinearParallel(comp, notQ, bad, st, workers); eu {
		return false // some path reaches ¬p∧¬q with q never seen before
	}
	return true
}
