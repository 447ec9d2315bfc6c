package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/computation"
	"repro/internal/pir"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// Differential properties of the slab-backed kernels at workers 1, 2 and
// 8 over random computations: the allocation-free irreducible sweeps
// against the materialized irreducible lists, Prefix-free A3 against A1
// run on materialized prefixes, and every kernel on comp.Prefix(c)
// against the same prefix rebuilt from scratch — the last catches clock
// slab reads past a prefix bound. CI runs them under -race (the names
// match its TestParallel pattern).

var kernelWorkers = []int{1, 2, 8}

func kernelComps() []*computation.Computation {
	var out []*computation.Computation
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := sim.RandomConfig{
			Procs:    1 + rng.Intn(6),
			Events:   5 + rng.Intn(60),
			SendProb: 0.2 + 0.5*rng.Float64(),
			RecvProb: 0.5 + 0.5*rng.Float64(),
			Vars:     2,
			ValRange: 3,
		}
		out = append(out, sim.Random(cfg, seed))
	}
	return out
}

// randomConj draws a conjunction of one to three local comparisons over
// the variables sim.Random assigns.
func randomConj(rng *rand.Rand, comp *computation.Computation) predicate.Conjunctive {
	ops := []predicate.Op{predicate.LT, predicate.LE, predicate.EQ, predicate.NE, predicate.GE, predicate.GT}
	var locals []predicate.LocalPredicate
	for c := 1 + rng.Intn(3); c > 0; c-- {
		locals = append(locals, varCmp(rng.Intn(comp.N()), fmt.Sprintf("x%d", rng.Intn(2)),
			ops[rng.Intn(len(ops))], rng.Intn(3)))
	}
	return predicate.Conj(locals...)
}

// randomCut draws a consistent cut by random ▷ steps from ∅.
func randomCut(rng *rand.Rand, comp *computation.Computation) computation.Cut {
	cut := comp.InitialCut()
	for s := rng.Intn(comp.TotalEvents() + 1); s > 0; s-- {
		en := comp.Enabled(cut)
		if len(en) == 0 {
			break
		}
		cut[en[rng.Intn(len(en))]]++
	}
	return cut
}

func TestParallelKernelsMatchIrreducibleLists(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	outcomes := map[bool]int{}
	for ci, comp := range kernelComps() {
		mi, ji := MeetIrreducibles(comp), JoinIrreducibles(comp)
		walk, idx := comp.NewMeetWalk(), 0
		for i := 0; i < comp.N(); i++ {
			for k := 1; k <= comp.Len(i); k++ {
				if got := walk.At(i, k); !got.Equal(mi[idx]) {
					t.Fatalf("comp %d: walk at (%d,%d) = %v, want %v", ci, i, k, got, mi[idx])
				}
				idx++
			}
		}
		for trial := 0; trial < 8; trial++ {
			p := randomConj(rng, comp)
			for _, meet := range []bool{true, false} {
				top, list := comp.FinalCut(), mi
				if !meet {
					top, list = comp.InitialCut(), ji
				}
				wantCex, wantOK, wantN := referenceSweep(comp, p, top, list)
				outcomes[wantOK]++
				for _, w := range kernelWorkers {
					st := &Stats{}
					cex, ok := irreducibleSweep(comp, p, st, w, meet)
					if ok != wantOK || !cutsEqual(cex, wantCex) || st.CutsVisited != wantN || st.PredicateEvals != wantN {
						t.Fatalf("comp %d %s meet=%v workers=%d: (%v,%v,%d cuts,%d evals), want (%v,%v,%d)",
							ci, p, meet, w, cex, ok, st.CutsVisited, st.PredicateEvals, wantCex, wantOK, wantN)
					}
				}
			}
		}
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Fatalf("degenerate corpus: outcomes %v", outcomes)
	}
}

// referenceSweep evaluates p at top and then at each listed irreducible
// in order, returning the first failing cut and the number of cuts
// evaluated.
func referenceSweep(comp *computation.Computation, p predicate.Predicate, top computation.Cut, list []computation.Cut) (computation.Cut, bool, int64) {
	if !p.Eval(comp, top) {
		return top, false, 1
	}
	for i, c := range list {
		if !p.Eval(comp, c) {
			return c, false, int64(i) + 2
		}
	}
	return nil, true, int64(len(list)) + 1
}

// referenceEU is Algorithm A3 as the paper states it: A1 on the
// materialized sub-computation below each maximal event of I_q.
func referenceEU(comp *computation.Computation, p predicate.Predicate, q predicate.Linear, st *Stats) ([]computation.Cut, bool) {
	iq, ok := leastCut(comp, q, st)
	if !ok {
		return nil, false
	}
	if iq.Size() == 0 {
		return []computation.Cut{iq}, true
	}
	for i := range iq {
		if !comp.MaximalEvent(iq, i) {
			continue
		}
		g := iq.Copy()
		g[i]--
		if path, ok := egLinear(comp.Prefix(g), p, st); ok {
			return append(path, iq), true
		}
	}
	return nil, false
}

func TestParallelKernelsA3WithoutPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	outcomes := map[bool]int{}
	for ci, comp := range kernelComps() {
		for trial := 0; trial < 8; trial++ {
			p, q := randomConj(rng, comp), randomConj(rng, comp)
			wantSt := &Stats{}
			wantPath, wantOK := referenceEU(comp, p, q, wantSt)
			outcomes[wantOK]++
			bound, _ := pir.FromPredicate(p).Bind(comp).Linear()
			for _, form := range []predicate.Predicate{p, bound} {
				for _, w := range kernelWorkers {
					st := &Stats{}
					path, ok := euConjLinearParallel(comp, form, q, st, w)
					if ok != wantOK || !pathsEqual(path, wantPath) || counters(st) != counters(wantSt) {
						t.Fatalf("comp %d E[%s U %s] %T workers=%d: (%v, %v, %v), want (%v, %v, %v)",
							ci, p, q, form, w, ok, path, counters(st), wantOK, wantPath, counters(wantSt))
					}
				}
			}
		}
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Fatalf("degenerate corpus: outcomes %v", outcomes)
	}
}

// rebuildPrefix builds, from scratch, the computation holding exactly the
// events of the consistent cut c of comp, with the same variables.
func rebuildPrefix(comp *computation.Computation, c computation.Cut) *computation.Computation {
	b := computation.NewBuilder(comp.N())
	for i := 0; i < comp.N(); i++ {
		for _, name := range comp.Vars(i) {
			v, _ := comp.Value(i, 0, name)
			b.SetInitial(i, name, v)
		}
	}
	msgs := map[int]computation.Msg{}
	cur := comp.InitialCut()
	for cur.Size() < c.Size() {
		for i := range cur {
			if cur[i] == c[i] || !comp.EnabledEvent(cur, i) {
				continue
			}
			e := comp.Event(i, cur[i]+1)
			var ne *computation.Event
			switch e.Kind {
			case computation.Send:
				ne, msgs[e.Msg] = b.Send(i)
			case computation.Receive:
				ne = b.Receive(i, msgs[e.Msg])
			default:
				ne = b.Internal(i)
			}
			for name, v := range e.Sets {
				computation.Set(ne, name, v)
			}
			cur[i]++
			break
		}
	}
	return b.MustBuild()
}

// kernelRun is one kernel's observable outcome: evidence, verdict and the
// deterministic Stats counters.
type kernelRun struct {
	cuts  []computation.Cut
	ok    bool
	stats [6]int64
}

func (r kernelRun) equal(o kernelRun) bool {
	return r.ok == o.ok && pathsEqual(r.cuts, o.cuts) && r.stats == o.stats
}

// runKernels runs every slab-reading kernel on comp, keyed by name.
func runKernels(comp *computation.Computation, p, q predicate.Conjunctive) map[string]kernelRun {
	out := map[string]kernelRun{}
	one := func(name string, body func(st *Stats) ([]computation.Cut, bool)) {
		st := &Stats{}
		cuts, ok := body(st)
		out[name] = kernelRun{cuts, ok, counters(st)}
	}
	cut := func(c computation.Cut, ok bool) ([]computation.Cut, bool) {
		if c == nil {
			return nil, ok
		}
		return []computation.Cut{c}, ok
	}
	one("leastCut", func(st *Stats) ([]computation.Cut, bool) { return cut(leastCut(comp, p, st)) })
	one("greatestCut", func(st *Stats) ([]computation.Cut, bool) { return cut(greatestCut(comp, p, st)) })
	one("A1", func(st *Stats) ([]computation.Cut, bool) { return egLinear(comp, p, st) })
	one("A1 dual", func(st *Stats) ([]computation.Cut, bool) { return egPostLinear(comp, p, st) })
	one("meet-irreducibles", func(*Stats) ([]computation.Cut, bool) { return MeetIrreducibles(comp), true })
	one("join-irreducibles", func(*Stats) ([]computation.Cut, bool) { return JoinIrreducibles(comp), true })
	for _, w := range kernelWorkers {
		one(fmt.Sprintf("A2/%d", w), func(st *Stats) ([]computation.Cut, bool) { return cut(agLinearParallel(comp, p, st, w)) })
		one(fmt.Sprintf("A2 dual/%d", w), func(st *Stats) ([]computation.Cut, bool) { return cut(agPostLinearParallel(comp, p, st, w)) })
		one(fmt.Sprintf("A3/%d", w), func(st *Stats) ([]computation.Cut, bool) { return euConjLinearParallel(comp, p, q, st, w) })
		one(fmt.Sprintf("meet walk/%d", w), func(*Stats) ([]computation.Cut, bool) { return MeetIrreduciblesParallel(comp, w), true })
	}
	return out
}

func TestParallelKernelsOnPrefixMatchRebuiltPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for ci, comp := range kernelComps() {
		for trial := 0; trial < 4; trial++ {
			c := randomCut(rng, comp)
			pre, fresh := comp.Prefix(c), rebuildPrefix(comp, c)
			p, q := randomConj(rng, comp), randomConj(rng, comp)
			got, want := runKernels(pre, p, q), runKernels(fresh, p, q)
			for name, w := range want {
				if g := got[name]; !g.equal(w) {
					t.Fatalf("comp %d prefix %v %s with p=%s q=%s: Prefix gives %+v, rebuilt %+v",
						ci, c, name, p, q, g, w)
				}
			}
		}
	}
}
