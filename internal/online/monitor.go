// Package online implements on-line (incremental) predicate detection —
// the paper's stated future work ("another area of future work will be to
// develop efficient on-line versions of our algorithms").
//
// A Monitor consumes the events of an unfolding computation as they are
// observed (in a causally consistent order: receives after their sends)
// and drives incremental detectors:
//
//   - EFConjunctive — the queue-based weak conjunctive predicate detection
//     of Garg and Waldecker: one queue of candidate local states per
//     constrained process, pairwise head elimination by vector clock,
//     verdict the moment a satisfying consistent cut exists. O(n²m) total
//     work for m events, no recomputation per event.
//   - AGConjunctive — invariant violation detection for conjunctive
//     predicates: a violation exists as soon as some conjunct is false in
//     some local state, because every local state is exposed by a
//     consistent cut.
//   - Stable — evaluates a frontier predicate after every event; for
//     stable predicates the frontier observation is equivalent to global
//     detection (Chandy–Lamport).
//
// Verdicts latch: once fired they remain fired in every extension of the
// observed prefix (EF and violation verdicts are monotone under prefix
// extension). For the non-monotone operators (EG, AG as a final verdict,
// until), Snapshot materializes the current prefix as a Computation for
// the offline algorithms in package core.
package online

import (
	"fmt"
	"time"

	"repro/internal/computation"
	"repro/internal/vclock"
)

// Monitor ingests events of an unfolding computation.
type Monitor struct {
	n        int
	clocks   []vclock.VC // running clock per process
	lens     []int       // events observed per process
	vals     []map[string]int
	initVals []map[string]int
	// stateClocks[i][k] is the clock of the event that started local
	// state k of process i (nil for k = 0: started at -∞).
	stateClocks [][]vclock.VC

	// Message ids are dense: Send hands out 1..nextMsg. sends holds only
	// the messages still in flight, so a bounded monitor's state does not
	// grow with the messages it has seen; an id in that range missing
	// from sends was already received.
	nextMsg  int
	sends    map[int]sendInfo
	inFlight int

	// Trace replay for Snapshot. Never populated in bounded mode.
	rec []recEvent

	// bounded, when set, drops the per-event history (rec and the
	// stateClocks columns): the monitor keeps only the frontier (current
	// clocks, valuations, in-flight sends) plus each watch's slice cursor,
	// so a long-lived session holds O(n + slice) state instead of O(|E|).
	// Snapshot — and with it Detect — is unavailable.
	bounded bool

	// Watch dispatch. onProc[i] lists the pending EF and AG watches that
	// constrain process i: an event on i can change no other EF or AG
	// verdict, so step notifies only these. stable lists the pending
	// frontier watches, evaluated after every event. A watch leaves every
	// list the moment it latches, so per-event cost tracks the watches
	// the event can still affect, not every watch ever registered.
	onProc [][]slot
	stable []*StableWatch

	// Running totals, kept as they change so that Events, Retained and
	// the gauges cost O(1): events observed, watches registered and still
	// awaiting a verdict, and candidates queued across the EF cursors.
	events  int
	pending int
	queued  int

	met *monMetrics // nil unless Instrument was called
}

// procWatch is a watch dispatched per constrained process: EFWatch and
// AGWatch.
type procWatch interface {
	// observe takes the new local state of the watch's k-th constrained
	// process and reports whether the watch latched.
	observe(m *Monitor, k int) bool
	// slots returns the watch's constrained processes and its position
	// in each of their dispatch lists.
	slots() *dispatch
}

// slot is one entry of a process's dispatch list: a watch and the index
// of that process among the watch's constrained processes.
type slot struct {
	w procWatch
	k int
}

type sendInfo struct {
	proc  int
	clock vclock.VC
}

type recEvent struct {
	proc int
	kind computation.Kind
	msg  int
	sets map[string]int
}

// NewMonitor returns a monitor for n processes.
func NewMonitor(n int) *Monitor {
	if n <= 0 {
		panic("online: need at least one process")
	}
	m := &Monitor{
		n:           n,
		clocks:      make([]vclock.VC, n),
		lens:        make([]int, n),
		vals:        make([]map[string]int, n),
		initVals:    make([]map[string]int, n),
		stateClocks: make([][]vclock.VC, n),
		sends:       make(map[int]sendInfo),
		onProc:      make([][]slot, n),
	}
	for i := 0; i < n; i++ {
		m.clocks[i] = vclock.New(n)
		m.vals[i] = make(map[string]int)
		m.initVals[i] = make(map[string]int)
		m.stateClocks[i] = []vclock.VC{nil}
	}
	return m
}

// NewBoundedMonitor returns a monitor that retains bounded state: the
// frontier plus the watches' slice cursors, never the observed prefix.
// Watch verdicts (and their cuts) are bit-identical to an unbounded
// monitor fed the same stream — the incremental detectors only ever read
// the current state's clock, which the frontier provides — but Snapshot
// and Detect panic, since the prefix they would materialize is gone.
func NewBoundedMonitor(n int) *Monitor {
	m := NewMonitor(n)
	m.bounded = true
	return m
}

// N returns the number of processes.
func (m *Monitor) N() int { return m.n }

// Bounded reports whether the monitor runs in bounded-state mode.
func (m *Monitor) Bounded() bool { return m.bounded }

// Retained returns the events' worth of state the monitor currently
// holds: the recorded prefix when unbounded, or the candidates queued in
// the watches' slice cursors when bounded — the measured per-session
// retained-state bound.
func (m *Monitor) Retained() int {
	if !m.bounded {
		return m.events
	}
	return m.queued
}

// enlist adds a pending EF or AG watch to the dispatch list of every
// process it constrains.
func (m *Monitor) enlist(w procWatch) {
	d := w.slots()
	d.pos = make([]int, len(d.procs))
	for k, p := range d.procs {
		d.pos[k] = len(m.onProc[p])
		m.onProc[p] = append(m.onProc[p], slot{w: w, k: k})
	}
	m.pending++
}

// retire removes a latched watch from every dispatch list it is on,
// moving each list's last entry into the vacated position. Dispatch order
// within a list carries no meaning: watches never read each other.
func (m *Monitor) retire(w procWatch) {
	d := w.slots()
	for k, p := range d.procs {
		list := m.onProc[p]
		i, last := d.pos[k], len(list)-1
		moved := list[last]
		list[i] = moved
		moved.w.slots().pos[moved.k] = i
		list[last] = slot{}
		m.onProc[p] = list[:last]
	}
	m.pending--
}

// startClock returns the vector clock of the event that began proc's
// current local state (nil for state 0, which began at -∞). Unbounded
// monitors read it from the stateClocks history; bounded monitors return
// a copy of the running clock, which is identical because the watches
// only ever ask about the state the event just appended.
func (m *Monitor) startClock(proc int) vclock.VC {
	k := m.lens[proc]
	if k == 0 {
		return nil
	}
	if m.bounded {
		return m.clocks[proc].Copy()
	}
	return m.stateClocks[proc][k]
}

// checkProc panics when proc is not a valid process index. Passing an
// out-of-range process to any observation method is a programming error
// (callers ingesting untrusted input, like hbserver, validate first);
// observation-order violations, which depend on the remote peer, are
// returned as errors by Receive instead.
func (m *Monitor) checkProc(proc int) {
	if proc < 0 || proc >= m.n {
		panic(fmt.Sprintf("online: process %d out of range [0,%d)", proc, m.n))
	}
}

// Events returns the number of events observed so far.
func (m *Monitor) Events() int { return m.events }

// EventsOn returns the number of events observed on one process. It
// panics when proc is out of range.
func (m *Monitor) EventsOn(proc int) int {
	m.checkProc(proc)
	return m.lens[proc]
}

// Value returns the current value of a variable on a process. It panics
// when proc is out of range.
func (m *Monitor) Value(proc int, name string) int {
	m.checkProc(proc)
	return m.vals[proc][name]
}

// InFlight returns the number of messages currently in flight.
func (m *Monitor) InFlight() int { return m.inFlight }

// SetInitial sets an initial variable value. It panics when proc is out
// of range or after the first event of the process has been observed.
func (m *Monitor) SetInitial(proc int, name string, value int) {
	m.checkProc(proc)
	if m.lens[proc] > 0 {
		panic("online: SetInitial after events were observed")
	}
	m.vals[proc][name] = value
	m.initVals[proc][name] = value
}

// Internal observes an internal event on proc with the given variable
// assignments (may be nil). It panics when proc is out of range.
func (m *Monitor) Internal(proc int, sets map[string]int) {
	m.checkProc(proc)
	m.step(proc, computation.Internal, 0, sets)
}

// Send observes a send event and returns the message id to pass to the
// matching Receive. It panics when proc is out of range.
func (m *Monitor) Send(proc int, sets map[string]int) int {
	m.checkProc(proc)
	m.nextMsg++
	id := m.nextMsg
	m.step(proc, computation.Send, id, sets)
	m.sends[id] = sendInfo{proc: proc, clock: m.clocks[proc].Copy()}
	m.inFlight++
	return id
}

// Receive observes the receipt of message id on proc. It returns an error
// if the message is unknown, already received, or a self-receive —
// observation-order violations, which leave the monitor state untouched
// so ingest can report the bad frame and continue. It panics when proc is
// out of range.
func (m *Monitor) Receive(proc int, id int, sets map[string]int) error {
	m.checkProc(proc)
	s, ok := m.sends[id]
	if !ok {
		if id > 0 && id <= m.nextMsg {
			return fmt.Errorf("online: message %d received twice", id)
		}
		return fmt.Errorf("online: receive of unknown message %d", id)
	}
	if s.proc == proc {
		return fmt.Errorf("online: message %d received by its sender", id)
	}
	m.clocks[proc].MergeInto(s.clock)
	delete(m.sends, id)
	m.inFlight--
	m.step(proc, computation.Receive, id, sets)
	return nil
}

func (m *Monitor) step(proc int, kind computation.Kind, msg int, sets map[string]int) {
	var start time.Time
	if m.met != nil {
		start = time.Now()
	}
	m.clocks[proc].Tick(proc)
	m.lens[proc]++
	m.events++
	for name, v := range sets {
		m.vals[proc][name] = v
	}
	if !m.bounded {
		m.stateClocks[proc] = append(m.stateClocks[proc], m.clocks[proc].Copy())
		copied := make(map[string]int, len(sets))
		for k, v := range sets {
			copied[k] = v
		}
		m.rec = append(m.rec, recEvent{proc: proc, kind: kind, msg: msg, sets: copied})
	}

	// Notify the pending watches the new local state can affect. A watch
	// that latches is retired, which moves the list's last entry into
	// position i; that entry is observed next.
	for i := 0; i < len(m.onProc[proc]); {
		s := m.onProc[proc][i]
		if s.w.observe(m, s.k) {
			m.retire(s.w)
			continue
		}
		i++
	}
	if len(m.stable) > 0 {
		live := m.stable[:0]
		for _, w := range m.stable {
			if w.observe(m) {
				m.pending--
			} else {
				live = append(live, w)
			}
		}
		clear(m.stable[len(live):])
		m.stable = live
	}

	if m.met != nil {
		m.met.events.Inc()
		m.refreshGauges()
		m.met.ingestDur.Observe(time.Since(start).Seconds())
	}
}

// Snapshot materializes the observed prefix as an immutable Computation
// for the offline algorithms. Cost is proportional to the prefix length.
// It panics on a bounded monitor, whose whole point is not retaining that
// prefix; callers offering snapshots (hbserver) must reject the request
// instead.
func (m *Monitor) Snapshot() *computation.Computation {
	if m.bounded {
		panic("online: Snapshot unavailable on a bounded monitor (prefix not retained)")
	}
	b := computation.NewBuilder(m.n)
	for i := 0; i < m.n; i++ {
		for name, v := range m.initVals[i] {
			b.SetInitial(i, name, v)
		}
	}
	handles := make(map[int]computation.Msg)
	for _, r := range m.rec {
		var e *computation.Event
		switch r.kind {
		case computation.Internal:
			e = b.Internal(r.proc)
		case computation.Send:
			var h computation.Msg
			e, h = b.Send(r.proc)
			handles[r.msg] = h
		case computation.Receive:
			e = b.Receive(r.proc, handles[r.msg])
		}
		for name, v := range r.sets {
			computation.Set(e, name, v)
		}
	}
	return b.MustBuild()
}
