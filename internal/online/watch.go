package online

import (
	"fmt"
	"slices"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/slice"
)

// LocalSpec is a local predicate for online detection, evaluated on a
// process's variable valuation at each new local state.
type LocalSpec struct {
	Proc  int
	Name  string
	Holds func(vals map[string]int) bool
}

// Cmp builds the online counterpart of predicate.VarCmp.
func Cmp(proc int, name, op string, k int) LocalSpec {
	return LocalSpec{
		Proc: proc,
		Name: fmt.Sprintf("%s@P%d %s %d", name, proc+1, op, k),
		Holds: func(vals map[string]int) bool {
			v := vals[name]
			switch op {
			case "<":
				return v < k
			case "<=":
				return v <= k
			case "==":
				return v == k
			case "!=":
				return v != k
			case ">=":
				return v >= k
			case ">":
				return v > k
			default:
				panic("online: unknown operator " + op)
			}
		},
	}
}

// HoldsNow reports whether the spec holds in its process's current local
// state — the frontier evaluation used by stable watches built from
// parsed conjuncts (hbserver's STABLE op).
func (l LocalSpec) HoldsNow(m *Monitor) bool {
	m.checkProc(l.Proc)
	return l.Holds(m.vals[l.Proc])
}

// dispatch is the per-process part of an EF or AG watch: its conjuncts
// grouped by constrained process, and the watch's position in the
// monitor's dispatch list of each of those processes.
type dispatch struct {
	procs []int         // constrained processes, in first-mention order
	specs [][]LocalSpec // specs[k]: the conjuncts on procs[k]
	pos   []int         // pos[k]: index in the monitor's list for procs[k]
}

// groupLocals groups conjuncts by process. It panics on a process outside
// the monitor.
func (m *Monitor) groupLocals(locals []LocalSpec) dispatch {
	var d dispatch
	for _, l := range locals {
		if l.Proc < 0 || l.Proc >= m.n {
			panic(fmt.Sprintf("online: local predicate on unknown process %d", l.Proc))
		}
		k := slices.Index(d.procs, l.Proc)
		if k < 0 {
			k = len(d.procs)
			d.procs = append(d.procs, l.Proc)
			d.specs = append(d.specs, nil)
		}
		d.specs[k] = append(d.specs[k], l)
	}
	return d
}

func (d *dispatch) slots() *dispatch { return d }

// failing returns the first conjunct on procs[k] that is false in the
// process's current local state, or -1 when they all hold.
func (d *dispatch) failing(m *Monitor, k int) int {
	vals := m.vals[d.procs[k]]
	for i, l := range d.specs[k] {
		if !l.Holds(vals) {
			return i
		}
	}
	return -1
}

// EFWatch incrementally detects EF(p) for a conjunctive predicate p — the
// Garg–Waldecker weak conjunctive predicate algorithm, with the queue and
// elimination machinery living in the slice.Online cursor so the watch
// retains O(slice) state (the queued candidates), never the raw prefix.
// The verdict latches: once a satisfying consistent cut exists in the
// observed prefix it exists in every extension.
type EFWatch struct {
	dispatch
	cur *slice.Online
}

// WatchEF registers a conjunctive predicate given by its local conjuncts.
// The returned watch fires as soon as some consistent cut of the observed
// prefix satisfies every conjunct. An empty conjunct list fires
// immediately (the empty conjunction holds at ∅).
func (m *Monitor) WatchEF(locals ...LocalSpec) *EFWatch {
	if m.events > 0 {
		panic("online: WatchEF must be registered before events are observed")
	}
	w := &EFWatch{dispatch: m.groupLocals(locals)}
	w.cur = slice.NewOnline(m.n, w.procs)
	// Seed with the initial states (before any event) of the constrained
	// processes whose conjuncts already hold.
	for k, proc := range w.procs {
		if w.failing(m, k) < 0 {
			w.cur.Offer(proc, 0, nil)
		}
	}
	w.advance(m)
	m.queued += w.cur.Retained()
	if !w.cur.Fired() {
		m.enlist(w)
	}
	return w
}

// Fired reports whether a satisfying cut has been found; Cut returns it.
func (w *EFWatch) Fired() bool { return w.cur.Fired() }

// Cut returns the satisfying cut once Fired; nil before.
func (w *EFWatch) Cut() computation.Cut { return w.cur.Cut() }

// Retained returns the candidate local states the watch currently holds —
// its entire per-prefix memory (the slice frontier of the predicate).
func (w *EFWatch) Retained() int { return w.cur.Retained() }

// observe takes the new local state of procs[k] and reports whether the
// watch latched. A state in which the process's conjuncts fail offers
// nothing, and only an offer can give the cursor elimination work.
func (w *EFWatch) observe(m *Monitor, k int) bool {
	if w.failing(m, k) >= 0 {
		return false
	}
	proc := w.procs[k]
	before := w.cur.Retained()
	w.cur.Offer(proc, m.lens[proc], m.startClock(proc))
	if w.cur.Dirty() {
		w.advance(m)
	}
	m.queued += w.cur.Retained() - before
	return w.cur.Fired()
}

// advance runs cursor elimination to its fixed point and records a
// newly-latched verdict in the metrics.
func (w *EFWatch) advance(m *Monitor) {
	wasFired := w.cur.Fired()
	w.cur.Step()
	if !wasFired && w.cur.Fired() && m.met != nil {
		m.met.efFired.Inc()
	}
}

// AGWatch incrementally detects violations of AG(p) for a conjunctive
// predicate p: the invariant is violated as soon as any conjunct is false
// in any local state, because every local state is exposed by a consistent
// cut (the down-set of its starting event). The violation verdict latches.
type AGWatch struct {
	dispatch
	violated bool
	badCut   computation.Cut
	badLocal string
}

// WatchAG registers an invariant given by its local conjuncts. The watch
// reports a violation the moment one exists in the observed prefix.
func (m *Monitor) WatchAG(locals ...LocalSpec) *AGWatch {
	if m.events > 0 {
		panic("online: WatchAG must be registered before events are observed")
	}
	w := &AGWatch{dispatch: m.groupLocals(locals)}
	// Check the initial states, in first-mention order.
	for k := range w.procs {
		if w.observe(m, k) {
			return w
		}
	}
	m.enlist(w)
	return w
}

// Violated reports whether the invariant failed; Counterexample returns a
// consistent cut exposing the failure and the name of the failing
// conjunct.
func (w *AGWatch) Violated() bool { return w.violated }

// Counterexample returns the violating cut and the failing conjunct name.
func (w *AGWatch) Counterexample() (computation.Cut, string) { return w.badCut, w.badLocal }

// observe checks the new local state of procs[k] and reports whether the
// watch latched a violation.
func (w *AGWatch) observe(m *Monitor, k int) bool {
	i := w.failing(m, k)
	if i < 0 {
		return false
	}
	w.violated = true
	if m.met != nil {
		m.met.agViolated.Inc()
	}
	w.badLocal = w.specs[k][i].Name
	cut := computation.NewCut(m.n)
	if start := m.startClock(w.procs[k]); start != nil {
		copy(cut, start)
	}
	w.badCut = cut
	return true
}

// StableWatch evaluates a frontier predicate after every event; for a
// stable predicate, observing it at the frontier of any prefix is
// equivalent to global detection (the frontier is a consistent cut, and
// stability carries the verdict forward).
type StableWatch struct {
	Name  string
	holds func(m *Monitor) bool
	fired bool
	at    int // events observed when fired
}

// WatchStable registers a stable frontier predicate, e.g.
// func(m *Monitor) bool { return m.InFlight() == 0 && m.Value(0, "done") == 1 }.
func (m *Monitor) WatchStable(name string, holds func(m *Monitor) bool) *StableWatch {
	w := &StableWatch{Name: name, holds: holds}
	if !w.observe(m) {
		m.stable = append(m.stable, w)
		m.pending++
	}
	return w
}

// Fired reports detection; FiredAt returns the prefix length at detection.
func (w *StableWatch) Fired() bool { return w.fired }

// FiredAt returns the number of observed events when the watch fired.
func (w *StableWatch) FiredAt() int { return w.at }

// observe evaluates the predicate at the frontier and reports whether the
// watch latched.
func (w *StableWatch) observe(m *Monitor) bool {
	if !w.holds(m) {
		return false
	}
	w.fired = true
	w.at = m.events
	if m.met != nil {
		m.met.stable.Inc()
	}
	return true
}

// Detect runs the offline dispatcher on a snapshot of the observed prefix
// — the bridge from online monitoring to the full operator set (EG, AG
// final verdicts, until).
func (m *Monitor) Detect(f ctl.Formula) (core.Result, error) {
	return core.Detect(m.Snapshot(), f)
}
