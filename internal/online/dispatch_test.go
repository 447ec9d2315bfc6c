package online

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/computation"
	"repro/internal/obs"
	"repro/internal/sim"
)

// watchSpec is one randomly drawn watch: its op and conjuncts.
type watchSpec struct {
	op     string // "EF", "AG" or "STABLE"
	locals []LocalSpec
}

// latch is the observable verdict of one watch: the number of events
// observed when it latched (-1 if it never did) and its evidence.
type latch struct {
	at       int
	cut      computation.Cut
	conjunct string
}

func (l latch) String() string {
	return fmt.Sprintf("latched at %d, cut %v, conjunct %q", l.at, l.cut, l.conjunct)
}

// registered is a watch registered on a monitor under test.
type registered struct {
	ef *EFWatch
	ag *AGWatch
	st *StableWatch
}

func (r registered) latched() bool {
	return r.ef != nil && r.ef.Fired() || r.ag != nil && r.ag.Violated() || r.st != nil && r.st.Fired()
}

func (r registered) evidence(at int) latch {
	switch {
	case r.ef != nil:
		return latch{at: at, cut: r.ef.Cut()}
	case r.ag != nil:
		cut, conjunct := r.ag.Counterexample()
		return latch{at: at, cut: cut, conjunct: conjunct}
	default:
		return latch{at: r.st.FiredAt()}
	}
}

func register(m *Monitor, s watchSpec) registered {
	switch s.op {
	case "EF":
		return registered{ef: m.WatchEF(s.locals...)}
	case "AG":
		return registered{ag: m.WatchAG(s.locals...)}
	}
	locals := s.locals
	return registered{st: m.WatchStable("stable", func(m *Monitor) bool {
		if m.InFlight() != 0 {
			return false
		}
		for _, l := range locals {
			if !l.HoldsNow(m) {
				return false
			}
		}
		return true
	})}
}

var cmpOps = []string{"<", "<=", "==", "!=", ">=", ">"}

// randomSpecs draws a watch mix over n processes: conjunct lists of 0–4
// conjuncts (so a watch spans up to 4 processes, and an empty EF list
// latches at registration), with every few watches a repeat of an earlier
// one, which latches on the same event as its original.
func randomSpecs(rng *rand.Rand, n, count int) []watchSpec {
	ops := []string{"EF", "AG", "STABLE"}
	var specs []watchSpec
	for len(specs) < count {
		if len(specs) > 0 && rng.Intn(5) == 0 {
			specs = append(specs, specs[rng.Intn(len(specs))])
			continue
		}
		s := watchSpec{op: ops[rng.Intn(len(ops))]}
		for c := rng.Intn(5); c > 0; c-- {
			s.locals = append(s.locals, Cmp(rng.Intn(n), fmt.Sprintf("x%d", rng.Intn(2)), cmpOps[rng.Intn(len(cmpOps))], rng.Intn(4)))
		}
		specs = append(specs, s)
	}
	return specs
}

// runWatches registers specs on a fresh monitor with the given initial
// values of x0 and replays comp, returning each watch's latch.
func runWatches(t *testing.T, comp *computation.Computation, bounded bool, inits []int, specs []watchSpec) []latch {
	t.Helper()
	m := NewMonitor(comp.N())
	if bounded {
		m = NewBoundedMonitor(comp.N())
	}
	for p, v := range inits {
		m.SetInitial(p, "x0", v)
	}
	ws := make([]registered, len(specs))
	got := make([]latch, len(specs))
	for i, s := range specs {
		ws[i] = register(m, s)
		got[i].at = -1
	}
	note := func(seen int) {
		for i, w := range ws {
			if got[i].at < 0 && w.latched() {
				got[i] = w.evidence(seen)
			}
		}
	}
	note(0)
	replay(t, comp, m, note)
	return got
}

// TestOnlineDispatchMatchesSoloWatches registers random mixes of EF, AG
// and STABLE watches on one monitor and requires every watch to latch at
// the same event, with the same cut and conjunct, as on a monitor that
// holds only that watch: per-process dispatch and retirement on latch
// must not change which watches see which events.
func TestOnlineDispatchMatchesSoloWatches(t *testing.T) {
	var atRegistration, sharedLatch int
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		comp := sim.Random(sim.DefaultRandomConfig(n, 20+rng.Intn(40)), seed)
		inits := make([]int, n)
		for p := range inits {
			inits[p] = rng.Intn(3)
		}
		specs := randomSpecs(rng, n, 12+rng.Intn(12))
		bounded := seed%2 == 1
		all := runWatches(t, comp, bounded, inits, specs)
		perEvent := make(map[int]int)
		for i, s := range specs {
			solo := runWatches(t, comp, bounded, inits, []watchSpec{s})[0]
			if got := all[i]; got.at != solo.at || !slices.Equal(got.cut, solo.cut) || got.conjunct != solo.conjunct {
				t.Fatalf("seed %d (bounded %v) watch %d %s%v: with %d others %s, alone %s",
					seed, bounded, i, s.op, s.locals, len(specs)-1, got, solo)
			}
			if all[i].at == 0 {
				atRegistration++
			}
			if all[i].at > 0 {
				perEvent[all[i].at]++
			}
		}
		for _, c := range perEvent {
			if c > 1 {
				sharedLatch++
			}
		}
	}
	if atRegistration == 0 || sharedLatch == 0 {
		t.Fatalf("weak battery: %d latches at registration, %d events latching several watches", atRegistration, sharedLatch)
	}
}

// TestOnlineDispatchGaugesMatchRecount checks the monitor's running
// totals against a full recount over every registered watch after each
// event: the hb_monitor_watches_pending and queue-depth gauges, the
// per-kind verdict counters, and Retained on a bounded monitor.
func TestOnlineDispatchGaugesMatchRecount(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		comp := sim.Random(sim.DefaultRandomConfig(n, 60), seed)
		specs := randomSpecs(rng, n, 20)
		reg := obs.NewRegistry()
		m := NewBoundedMonitor(n)
		m.Instrument(reg)
		ws := make([]registered, len(specs))
		for i, s := range specs {
			ws[i] = register(m, s)
		}
		check := func(seen int) {
			pending, depth := 0, 0
			var fired, violated, stable int64
			for _, w := range ws {
				if !w.latched() {
					pending++
				}
				if w.ef != nil {
					depth += w.ef.Retained()
				}
				switch {
				case w.ef != nil && w.ef.Fired() && len(w.ef.procs) > 0:
					fired++ // an unconstrained EF watch is born fired and counts no latch
				case w.ag != nil && w.ag.Violated():
					violated++
				case w.st != nil && w.st.Fired():
					stable++
				}
			}
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"hb_monitor_watches_pending", reg.Gauge("hb_monitor_watches_pending", "").Value(), int64(pending)},
				{"hb_monitor_watch_queue_depth", reg.Gauge("hb_monitor_watch_queue_depth", "").Value(), int64(depth)},
				{"Retained", int64(m.Retained()), int64(depth)},
				{"ef_fired", reg.Counter(`hb_monitor_verdicts_total{kind="ef_fired"}`, "").Value(), fired},
				{"ag_violated", reg.Counter(`hb_monitor_verdicts_total{kind="ag_violated"}`, "").Value(), violated},
				{"stable_fired", reg.Counter(`hb_monitor_verdicts_total{kind="stable_fired"}`, "").Value(), stable},
			} {
				if c.got != c.want {
					t.Fatalf("seed %d after %d events: %s = %d, recount %d", seed, seen, c.name, c.got, c.want)
				}
			}
		}
		replay(t, comp, m, check)
	}
}
