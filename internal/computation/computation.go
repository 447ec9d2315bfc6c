package computation

import (
	"fmt"
	"sort"
)

// Computation is an immutable happened-before model (E, →) of a single
// execution of a distributed program, together with the per-event local
// variable valuations the paper's predicates are evaluated over.
//
// Local states: process i is in local state k (0 ≤ k ≤ Len(i)) after
// executing its first k events; state 0 is the initial state. A Cut c puts
// process i in local state c[i].
type Computation struct {
	events     [][]*Event         // events[i][k] is event (i, k+1)
	clocks     [][]int            // clocks[i][k*N() : (k+1)*N()] is the clock of event (i, k+1)
	initial    []map[string]int   // initial valuation per process
	vals       []map[string][]int // vals[i][name][k] = value of name in state k of process i
	varsByProc [][]string         // sorted variable names known to each process
	sends      map[int]*Event     // message id → send event
	recvs      map[int]*Event     // message id → receive event
}

// N returns the number of processes.
func (c *Computation) N() int { return len(c.events) }

// Len returns the number of events of process i.
func (c *Computation) Len(i int) int { return len(c.events[i]) }

// TotalEvents returns |E|.
func (c *Computation) TotalEvents() int {
	total := 0
	for _, evs := range c.events {
		total += len(evs)
	}
	return total
}

// Event returns event (i, k), k being 1-based. It panics on out-of-range
// arguments.
func (c *Computation) Event(i, k int) *Event {
	return c.events[i][k-1]
}

// Events returns the event sequence of process i. The returned slice must
// not be modified.
func (c *Computation) Events(i int) []*Event { return c.events[i] }

// Messages returns the ids of all messages in the computation in
// ascending order.
func (c *Computation) Messages() []int {
	ids := make([]int, 0, len(c.sends))
	for id := range c.sends {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// SendOf returns the send event of message id, or nil.
func (c *Computation) SendOf(id int) *Event { return c.sends[id] }

// RecvOf returns the receive event of message id, or nil if the message is
// never received.
func (c *Computation) RecvOf(id int) *Event { return c.recvs[id] }

// HappenedBefore reports e → f (strict).
func (c *Computation) HappenedBefore(e, f *Event) bool {
	if e == f {
		return false
	}
	return e.Clock[e.Proc] <= f.Clock[e.Proc] && !(e.Proc == f.Proc && e.Index >= f.Index)
}

// Concurrent reports that neither e → f nor f → e.
func (c *Computation) Concurrent(e, f *Event) bool {
	return e != f && !c.HappenedBefore(e, f) && !c.HappenedBefore(f, e)
}

// Value returns the value of variable name in local state k of process i,
// and whether the variable is defined for that process.
func (c *Computation) Value(i, k int, name string) (int, bool) {
	col, ok := c.vals[i][name]
	if !ok {
		return 0, false
	}
	return col[k], true
}

// Vars returns the sorted variable names defined on process i.
func (c *Computation) Vars(i int) []string { return c.varsByProc[i] }

// InitialCut returns ∅, the empty cut.
func (c *Computation) InitialCut() Cut { return NewCut(c.N()) }

// FinalCut returns E, the cut containing every event.
func (c *Computation) FinalCut() Cut {
	f := NewCut(c.N())
	for i := range c.events {
		f[i] = len(c.events[i])
	}
	return f
}

// InRange reports that c is a syntactically valid cut for this computation
// (correct length, counters within bounds). It says nothing about
// consistency.
func (comp *Computation) InRange(c Cut) bool {
	if len(c) != comp.N() {
		return false
	}
	for i, x := range c {
		if x < 0 || x > comp.Len(i) {
			return false
		}
	}
	return true
}

// Consistent reports whether c is a consistent cut: for every included
// event, all events that happened-before it are included too.
func (comp *Computation) Consistent(c Cut) bool {
	if !comp.InRange(c) {
		return false
	}
	for i, k := range c {
		if k == 0 {
			continue
		}
		for j, need := range comp.clock(i, k) {
			if need > c[j] {
				return false
			}
		}
	}
	return true
}

// clock returns the vector clock of event (i, k), k ≥ 1, as a row of
// process i's slab.
func (comp *Computation) clock(i, k int) []int {
	n := len(comp.clocks)
	return comp.clocks[i][(k-1)*n : k*n]
}

// EnabledEvent reports whether the next event of process i (event
// (i, c[i]+1)) can be added to c while keeping it consistent.
func (comp *Computation) EnabledEvent(c Cut, i int) bool {
	k := c[i]
	if k >= comp.Len(i) {
		return false
	}
	for j, need := range comp.clock(i, k+1) {
		if j != i && need > c[j] {
			return false
		}
	}
	return true
}

// Enabled returns the processes whose next event is enabled at c, in
// ascending order. These determine the successors of c in the lattice.
func (comp *Computation) Enabled(c Cut) []int {
	var out []int
	for i := range c {
		if comp.EnabledEvent(c, i) {
			out = append(out, i)
		}
	}
	return out
}

// Successors returns the cuts H with c ▷ H.
func (comp *Computation) Successors(c Cut) []Cut {
	var out []Cut
	for _, i := range comp.Enabled(c) {
		h := c.Copy()
		h[i]++
		out = append(out, h)
	}
	return out
}

// MaximalEvent reports whether the last included event of process i (event
// (i, c[i])) is maximal in the cut, i.e. removable while keeping the cut
// consistent.
func (comp *Computation) MaximalEvent(c Cut, i int) bool {
	k := c[i]
	if k == 0 {
		return false
	}
	// Event (i,k) is maximal iff no other included event causally follows
	// it; it suffices to check the last included event of each process.
	n := len(c)
	for j, m := range c {
		if j == i || m == 0 {
			continue
		}
		if comp.clocks[j][(m-1)*n+i] >= k {
			return false
		}
	}
	return true
}

// Frontier returns the maximal events of cut c with respect to
// happened-before, in process order.
func (comp *Computation) Frontier(c Cut) []*Event {
	var out []*Event
	for i, k := range c {
		if k > 0 && comp.MaximalEvent(c, i) {
			out = append(out, comp.events[i][k-1])
		}
	}
	return out
}

// Predecessors returns the cuts G with G ▷ c.
func (comp *Computation) Predecessors(c Cut) []Cut {
	var out []Cut
	for i := range c {
		if comp.MaximalEvent(c, i) {
			g := c.Copy()
			g[i]--
			out = append(out, g)
		}
	}
	return out
}

// DownSet returns ↓e, the least consistent cut containing event e. By the
// vector-clock characterization this is exactly e's clock read as a cut;
// these cuts are the join-irreducible elements of the lattice.
func (comp *Computation) DownSet(e *Event) Cut {
	return Cut(e.Clock.Copy())
}

// UpSetComplement returns E − ↑e, the greatest consistent cut not
// containing event e; these cuts are the meet-irreducible elements of the
// lattice (Birkhoff). Component j counts the events of process j that e
// does not happen-before (and that are not e itself).
func (comp *Computation) UpSetComplement(e *Event) Cut {
	m := comp.FinalCut()
	comp.MeetUpSetComplement(m, e)
	return m
}

// MeetUpSetComplement sets c to c ⊓ (E − ↑e) in place: the greatest
// consistent cut below the consistent cut c that excludes e. It
// allocates nothing.
func (comp *Computation) MeetUpSetComplement(c Cut, e *Event) {
	n, i := len(c), e.Proc
	for j := range c {
		if j == i {
			c[j] = min(c[j], e.Index-1)
			continue
		}
		// Events of process j that causally know e form a suffix; find the
		// first one with Clock[i] ≥ e.Index among the first c[j] by binary
		// search.
		col := comp.clocks[j]
		lo, hi := 0, c[j]
		for lo < hi {
			mid := (lo + hi) / 2
			if col[mid*n+i] >= e.Index {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		c[j] = lo
	}
}

// MeetWalk enumerates meet-irreducible cuts E − ↑(i, k) into one scratch
// cut. Along one process E − ↑(i, k) is monotone in k (component j counts
// the events of j whose clock entry for i is below k, a prefix), so
// successive calls for the same process advance a pointer per process
// instead of binary-searching: a full sweep of process i costs O(|E|)
// clock reads, allocation-free. A MeetWalk is not safe for concurrent
// use; parallel sweeps take one per worker.
type MeetWalk struct {
	comp    *Computation
	proc, k int
	cut     Cut
}

// NewMeetWalk returns a walk over comp's meet-irreducible cuts.
func (comp *Computation) NewMeetWalk() *MeetWalk {
	return &MeetWalk{comp: comp, proc: -1, cut: NewCut(comp.N())}
}

// At returns E − ↑(i, k) for event (i, k), k 1-based, as the walk's
// scratch cut: it must not be modified, and the next call overwrites it.
// Calls for one process with non-decreasing k advance incrementally; any
// other call restarts the walk from the initial cut.
func (w *MeetWalk) At(i, k int) Cut {
	if i != w.proc || k < w.k {
		clear(w.cut)
		w.proc = i
	}
	w.k = k
	n := len(w.cut)
	for j, m := range w.cut {
		if j == i {
			continue
		}
		col, end := w.comp.clocks[j], len(w.comp.events[j])
		for m < end && col[m*n+i] < k {
			m++
		}
		w.cut[j] = m
	}
	w.cut[i] = k - 1
	return w.cut
}

// CompatibleStates reports whether local states (i, k) and (j, k') can
// belong to a common consistent cut.
func (comp *Computation) CompatibleStates(i, k, j, kp int) bool {
	if i == j {
		return k == kp
	}
	// The least cut containing exactly k events of i and k' of j exists iff
	// neither state causally requires more of the other process.
	if kp > 0 && comp.clock(j, kp)[i] > k {
		return false
	}
	if k > 0 && comp.clock(i, k)[j] > kp {
		return false
	}
	return true
}

// InFlight returns the number of messages sent but not yet received at cut
// c (messages never received count while their send is included).
func (comp *Computation) InFlight(c Cut) int {
	n := 0
	for id, s := range comp.sends {
		if c[s.Proc] < s.Index {
			continue
		}
		r := comp.recvs[id]
		if r == nil || c[r.Proc] < r.Index {
			n++
		}
	}
	return n
}

// ChannelsEmpty reports that no message is in flight at cut c.
func (comp *Computation) ChannelsEmpty(c Cut) bool { return comp.InFlight(c) == 0 }

// Prefix returns the sub-computation containing exactly the events of the
// consistent cut c. The result shares storage with the original: event,
// clock slab and value columns are re-sliced to the prefix bound, so no
// read through the prefix reaches past it. It panics if c is not
// consistent: a non-consistent prefix would contain receives without their
// sends.
func (comp *Computation) Prefix(c Cut) *Computation {
	if !comp.Consistent(c) {
		panic(fmt.Sprintf("computation: Prefix of inconsistent cut %v", c))
	}
	n := comp.N()
	sub := &Computation{
		events:     make([][]*Event, n),
		clocks:     make([][]int, n),
		initial:    comp.initial,
		vals:       make([]map[string][]int, n),
		varsByProc: comp.varsByProc,
		sends:      make(map[int]*Event),
		recvs:      make(map[int]*Event),
	}
	for i, k := range c {
		sub.events[i] = comp.events[i][:k:k]
		sub.clocks[i] = comp.clocks[i][: k*n : k*n]
		cols := make(map[string][]int, len(comp.vals[i]))
		for name, col := range comp.vals[i] {
			cols[name] = col[: k+1 : k+1]
		}
		sub.vals[i] = cols
		for _, e := range sub.events[i] {
			switch e.Kind {
			case Send:
				sub.sends[e.Msg] = e
			case Receive:
				sub.recvs[e.Msg] = e
			}
		}
	}
	return sub
}

// SomeLinearization returns one maximal consistent cut sequence
// ∅ = G0 ▷ G1 ▷ … ▷ Gl = E, choosing at each step the enabled event of the
// lowest-numbered process. Observer-independent predicates can be detected
// by examining any single such observation.
func (comp *Computation) SomeLinearization() []Cut {
	cur := comp.InitialCut()
	seq := []Cut{cur.Copy()}
	total := comp.TotalEvents()
	for s := 0; s < total; s++ {
		advanced := false
		for i := range cur {
			if comp.EnabledEvent(cur, i) {
				cur[i]++
				seq = append(seq, cur.Copy())
				advanced = true
				break
			}
		}
		if !advanced {
			// Cannot happen in a valid computation: some minimal event of
			// the remainder is always enabled.
			panic("computation: no enabled event before reaching the final cut")
		}
	}
	return seq
}
