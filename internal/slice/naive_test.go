package slice

import (
	"repro/internal/computation"
	"repro/internal/predicate"
)

// New computes the slice of comp with respect to the linear predicate p
// the naive way: one advancement run for I_p plus one from scratch per
// event for the J_p(e), i.e. O(n|E|) predicate evaluations per run and
// O(n|E|²) in total. It is the tests' reference for NewIncremental, which
// builds the identical slice in O(n|E|) cut updates per process
// (TestIncrementalMatchesNaive); production code builds slices with
// NewIncremental only.
func New(comp *computation.Computation, p predicate.Linear) *Slice {
	s := &Slice{comp: comp, p: p, j: make([][]computation.Cut, comp.N())}
	s.ip, s.satisfiable = leastFrom(comp, p, comp.InitialCut())
	for i := 0; i < comp.N(); i++ {
		s.j[i] = make([]computation.Cut, comp.Len(i))
		if !s.satisfiable {
			continue
		}
		for k := 1; k <= comp.Len(i); k++ {
			start := comp.DownSet(comp.Event(i, k))
			if cut, ok := leastFrom(comp, p, start); ok {
				s.j[i][k-1] = cut
			}
		}
	}
	return s
}
