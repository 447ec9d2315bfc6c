package computation

import (
	"fmt"
	"sort"

	"repro/internal/vclock"
)

// Builder constructs a Computation event by event, computing vector clocks
// as it goes. Methods that add events return the *Event so callers can
// attach labels and variable assignments fluently; Build validates and
// freezes the result.
//
// A Builder is not safe for concurrent use; callers recording from
// multiple goroutines must serialize access (package dist does exactly
// that).
type Builder struct {
	n       int
	events  [][]*Event
	clocks  []vclock.VC // running clock per process
	arena   []int       // unused tail of the chunk event clocks are carved from
	initial []map[string]int
	nextMsg int
	sends   map[int]*Event
	recvs   map[int]*Event
	err     error
}

// Msg is an opaque handle for a message created by Send and consumed by
// Receive.
type Msg struct{ id int }

// NewBuilder returns a builder for a computation with n processes
// (numbered 0..n-1).
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic("computation: builder needs at least one process")
	}
	b := &Builder{
		n:       n,
		events:  make([][]*Event, n),
		clocks:  make([]vclock.VC, n),
		initial: make([]map[string]int, n),
		sends:   make(map[int]*Event),
		recvs:   make(map[int]*Event),
	}
	for i := 0; i < n; i++ {
		b.clocks[i] = vclock.New(n)
		b.initial[i] = make(map[string]int)
	}
	return b
}

// SetInitial assigns the initial value of a variable on process i (local
// state 0). Variables not set initially default to 0 once first assigned.
func (b *Builder) SetInitial(i int, name string, value int) *Builder {
	b.checkProc(i)
	b.initial[i][name] = value
	return b
}

func (b *Builder) checkProc(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("computation: process %d out of range [0,%d)", i, b.n))
	}
}

func (b *Builder) addEvent(i int, kind Kind, msg int) *Event {
	b.checkProc(i)
	b.clocks[i].Tick(i)
	e := &Event{
		Proc:  i,
		Index: len(b.events[i]) + 1,
		Kind:  kind,
		Msg:   msg,
		Clock: b.clockRow(i),
	}
	b.events[i] = append(b.events[i], e)
	return e
}

// arenaInts sizes one builder arena chunk: as many whole event clocks as
// fit in 4096 ints (32 KiB), at most 256 and at least one, so a wide
// computation's first event does not allocate hundreds of clocks.
const arenaInts = 4096

// clockRow returns a copy of process i's running clock carved from the
// builder's arena, so recording an event costs no allocation of its own.
// Build repacks the rows into per-process slabs.
func (b *Builder) clockRow(i int) vclock.VC {
	if len(b.arena) < b.n {
		b.arena = make([]int, b.n*max(1, min(256, arenaInts/b.n)))
	}
	row := b.arena[:b.n:b.n]
	b.arena = b.arena[b.n:]
	copy(row, b.clocks[i])
	return row
}

// Internal appends an internal event on process i.
func (b *Builder) Internal(i int) *Event {
	return b.addEvent(i, Internal, 0)
}

// Send appends a send event on process i and returns the event and a
// message handle to pass to Receive.
func (b *Builder) Send(i int) (*Event, Msg) {
	b.nextMsg++
	e := b.addEvent(i, Send, b.nextMsg)
	b.sends[b.nextMsg] = e
	return e, Msg{b.nextMsg}
}

// Receive appends a receive event on process i consuming message m. The
// receiver's clock absorbs the sender's clock at the send event. Receiving
// a message twice, an unknown message, or a message on the sending process
// records an error reported by Build.
func (b *Builder) Receive(i int, m Msg) *Event {
	b.checkProc(i)
	s, ok := b.sends[m.id]
	if !ok {
		b.fail(fmt.Errorf("receive of unknown message %d on process %d", m.id, i))
		return b.addEvent(i, Receive, m.id)
	}
	if _, dup := b.recvs[m.id]; dup {
		b.fail(fmt.Errorf("message %d received twice", m.id))
	}
	if s.Proc == i {
		b.fail(fmt.Errorf("message %d received by its sender P%d", m.id, i+1))
	}
	b.clocks[i].MergeInto(s.Clock)
	e := b.addEvent(i, Receive, m.id)
	b.recvs[m.id] = e
	return e
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// WithLabel sets the label of e and returns e.
func WithLabel(e *Event, label string) *Event {
	e.Label = label
	return e
}

// Set records a variable assignment performed by event e and returns e.
func Set(e *Event, name string, value int) *Event {
	if e.Sets == nil {
		e.Sets = make(map[string]int)
	}
	e.Sets[name] = value
	return e
}

// Build validates the accumulated events and returns the immutable
// computation.
func (b *Builder) Build() (*Computation, error) {
	if b.err != nil {
		return nil, fmt.Errorf("computation: %w", b.err)
	}
	comp := &Computation{
		events:     b.events,
		initial:    b.initial,
		sends:      b.sends,
		recvs:      b.recvs,
		clocks:     make([][]int, b.n),
		vals:       make([]map[string][]int, b.n),
		varsByProc: make([][]string, b.n),
	}
	// Pack each process's clocks into one exact-size row-major slab and
	// re-point every Event.Clock at its row, so the detection kernels read
	// clocks without chasing event pointers and the memory is not doubled.
	for i, evs := range b.events {
		slab := make([]int, len(evs)*b.n)
		for k, e := range evs {
			row := slab[k*b.n : (k+1)*b.n : (k+1)*b.n]
			copy(row, e.Clock)
			e.Clock = row
		}
		comp.clocks[i] = slab
	}
	// Materialize per-state valuations so Value is O(1), in one pass over
	// each process's events: a column is filled forward lazily, up to the
	// next assignment and finally to the last state.
	type column struct {
		vals []int // vals[k] is the value in local state k
		last int   // vals[:last+1] are final
	}
	for i, evs := range b.events {
		cols := make(map[string]*column, len(b.initial[i]))
		open := func(name string) *column {
			c := &column{vals: make([]int, len(evs)+1)}
			c.vals[0] = b.initial[i][name]
			cols[name] = c
			return c
		}
		for name := range b.initial[i] {
			open(name)
		}
		for k, e := range evs {
			for name, v := range e.Sets {
				c := cols[name]
				if c == nil {
					c = open(name)
				}
				for s := c.last + 1; s <= k; s++ {
					c.vals[s] = c.vals[c.last]
				}
				c.vals[k+1], c.last = v, k+1
			}
		}
		vals := make(map[string][]int, len(cols))
		sorted := make([]string, 0, len(cols))
		for name, c := range cols {
			for s := c.last + 1; s <= len(evs); s++ {
				c.vals[s] = c.vals[c.last]
			}
			vals[name] = c.vals
			sorted = append(sorted, name)
		}
		sort.Strings(sorted)
		comp.vals[i] = vals
		comp.varsByProc[i] = sorted
	}
	return comp, nil
}

// MustBuild is Build that panics on error, for tests and fixed fixtures.
func (b *Builder) MustBuild() *Computation {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}
