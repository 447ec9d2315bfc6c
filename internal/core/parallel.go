package core

// Parallel execution layer for the sweep-shaped detection algorithms.
//
// The paper's cheapest algorithms are embarrassingly parallel over
// independent sub-problems: Algorithm A2 evaluates the predicate at |E|
// meet-irreducible cuts that depend only on one event each, its dual scans
// the |E| join-irreducible cuts, and step 2 of Algorithm A3 runs an
// independent EG check below each frontier event of I_q. Each of them is
// one kernel taking a worker count; workers = 1 runs the same code inline.
// Sweeps shard over a small worker pool, bounded by GOMAXPROCS by default,
// while keeping every observable output — verdict, witness or
// counterexample cut, and Stats totals — bit-identical at every worker
// count.
//
// Determinism rule: every sweep has a canonical sequential order (events
// by process then position; frontier branches by process). The runner
// returns the hit with the LOWEST index in that order, which is exactly
// where the inline left-to-right sweep stops. Early cancellation uses a
// shared atomic upper bound holding the best (lowest) hit index found so
// far: workers abandon indices at or above the bound, but always finish
// indices below it, so the minimum is exact and does not depend on worker
// count or goroutine scheduling.
//
// Stats discipline: workers never touch a shared Stats (the hot loops stay
// atomic-free). The irreducible sweeps derive their counters from the hit
// index; A3 collects per-branch Stats and merges, after the join, only the
// branches the inline run executes (indices up to and including the
// winning hit). Work performed above the winning index during the
// cancellation window is deliberately not counted: it is scheduling noise,
// and counting it would make Stats depend on worker count.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/computation"
	"repro/internal/ctl"
	"repro/internal/predicate"
)

// normWorkers resolves a worker-count request: non-positive means "as many
// as the hardware allows" (GOMAXPROCS).
func normWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// eventCursor maps canonical sweep indices (events by process, then
// position) to events as (process, 1-based index). Lookups with
// non-decreasing indices cost amortized O(1); a smaller index rewinds.
type eventCursor struct {
	comp       *computation.Computation
	proc, base int // base is the sweep index of event (proc, 1)
}

func (c *eventCursor) locate(idx int) (proc, k int) {
	if idx < c.base {
		c.proc, c.base = 0, 0
	}
	for idx >= c.base+c.comp.Len(c.proc) {
		c.base += c.comp.Len(c.proc)
		c.proc++
	}
	return c.proc, idx - c.base + 1
}

// sweep is the worker-pool runner behind the sweep-shaped kernels: it
// returns the lowest index in [0, total) whose probe reports a hit, or
// total when none does. The range is sharded over at most workers
// goroutines in contiguous blocks; with one worker it runs inline. Every
// worker, the inline one included, builds its own probe with newProbe, so
// a probe may keep per-worker scratch; it is called with increasing
// indices, each index by exactly one worker. lost(idx) reports that a
// lower hit already decides the sweep, so idx cannot win; long-running
// probes poll it to abandon their work.
func sweep(total, workers int, newProbe func(lost func(idx int) bool) func(idx int) bool) int {
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		probe := newProbe(func(int) bool { return false })
		for i := 0; i < total; i++ {
			if probe(i) {
				return i
			}
		}
		return total
	}
	// bound is the lowest hit index found so far; indices at or above it
	// cannot win, so workers skip them — the cancellation signal.
	var bound atomic.Int64
	bound.Store(int64(total))
	lost := func(idx int) bool { return int64(idx) >= bound.Load() }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*total/workers, (w+1)*total/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe := newProbe(lost)
			for i := lo; i < hi; i++ {
				if lost(i) {
					return
				}
				if !probe(i) {
					continue
				}
				// CAS-min: lower hits always win, racing higher ones lose.
				for {
					cur := bound.Load()
					if int64(i) >= cur || bound.CompareAndSwap(cur, int64(i)) {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return int(bound.Load())
}

// sweepFirst is sweep with one stateless probe shared by every worker.
func sweepFirst(total, workers int, probe func(idx int) bool) int {
	return sweep(total, workers, func(func(int) bool) func(int) bool { return probe })
}

// DetectParallel is Detect with a parallel execution budget: the
// sweep-shaped algorithms (A2 and its dual, A3 step 2, the AU composition
// through A3) shard their independent sub-problems over up to workers
// goroutines. workers <= 0 means GOMAXPROCS; 1 is exactly Detect. The
// verdict, witness or counterexample, and Stats totals are identical to
// Detect at every worker count (see the determinism rule above).
func DetectParallel(comp *computation.Computation, f ctl.Formula, workers int) (Result, error) {
	return runDetect(comp, f, normWorkers(workers))
}

// AGLinearParallel is Algorithm A2 with the |E| meet-irreducible cuts
// sharded over up to workers goroutines (<= 0 means GOMAXPROCS). The
// returned counterexample is the one AGLinear returns: the first failing
// cut in the canonical event order.
func AGLinearParallel(comp *computation.Computation, p predicate.Predicate, workers int) (counterexample computation.Cut, ok bool) {
	return agLinearParallel(comp, p, nil, normWorkers(workers))
}

func agLinearParallel(comp *computation.Computation, p predicate.Predicate, st *Stats, workers int) (counterexample computation.Cut, ok bool) {
	return irreducibleSweep(comp, p, st, workers, true)
}

// AGPostLinearParallel is the dual of AGLinearParallel: the |E|
// join-irreducible cuts ↓e sharded over up to workers goroutines.
func AGPostLinearParallel(comp *computation.Computation, p predicate.Predicate, workers int) (counterexample computation.Cut, ok bool) {
	return agPostLinearParallel(comp, p, nil, normWorkers(workers))
}

func agPostLinearParallel(comp *computation.Computation, p predicate.Predicate, st *Stats, workers int) (counterexample computation.Cut, ok bool) {
	return irreducibleSweep(comp, p, st, workers, false)
}

// EUConjLinearParallel is Algorithm A3 with step 2's per-frontier-event EG
// checks running concurrently (<= 0 workers means GOMAXPROCS). Step 1 (the
// advancement to I_q) is inherently sequential and stays so. The witness
// is the one EUConjLinear returns: the EG path through the first
// succeeding frontier branch in process order.
func EUConjLinearParallel(comp *computation.Computation, p predicate.Conjunctive, q predicate.Linear, workers int) (path []computation.Cut, ok bool) {
	return euConjLinearParallel(comp, p, q, nil, normWorkers(workers))
}

// MeetIrreduciblesParallel constructs the meet-irreducible cuts E − ↑e in
// the same order as MeetIrreducibles, with the per-event Birkhoff formula
// evaluated across up to workers goroutines (<= 0 means GOMAXPROCS).
func MeetIrreduciblesParallel(comp *computation.Computation, workers int) []computation.Cut {
	return irreducibles(comp, workers, true)
}

// JoinIrreduciblesParallel constructs the join-irreducible cuts ↓e in the
// same order as JoinIrreducibles across up to workers goroutines.
func JoinIrreduciblesParallel(comp *computation.Computation, workers int) []computation.Cut {
	return irreducibles(comp, workers, false)
}

// irreducibles materializes every meet- (join-) irreducible cut in the
// canonical event order: a sweep whose probe never hits.
func irreducibles(comp *computation.Computation, workers int, meet bool) []computation.Cut {
	total := comp.TotalEvents()
	if total == 0 {
		return nil
	}
	out := make([]computation.Cut, total)
	sweep(total, normWorkers(workers), func(func(int) bool) func(int) bool {
		var walk *computation.MeetWalk
		if meet {
			walk = comp.NewMeetWalk()
		}
		at := eventCursor{comp: comp}
		return func(idx int) bool {
			i, k := at.locate(idx)
			if meet {
				out[idx] = walk.At(i, k).Copy()
			} else {
				out[idx] = comp.DownSet(comp.Event(i, k))
			}
			return false
		}
	})
	return out
}
