package online

import (
	"fmt"
	"testing"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// replay feeds a computation into a monitor event by event along one
// linearization, calling step after every event.
func replay(t *testing.T, comp *computation.Computation, m *Monitor, step func(eventsSeen int)) {
	t.Helper()
	for i := 0; i < comp.N(); i++ {
		for _, name := range comp.Vars(i) {
			if v, _ := comp.Value(i, 0, name); v != 0 {
				m.SetInitial(i, name, v)
			}
		}
	}
	msgIDs := make(map[int]int) // computation msg id → monitor msg id
	seq := comp.SomeLinearization()
	seen := 0
	for s := 1; s < len(seq); s++ {
		prev, cur := seq[s-1], seq[s]
		for p := range cur {
			if cur[p] <= prev[p] {
				continue
			}
			e := comp.Event(p, cur[p])
			switch e.Kind {
			case computation.Internal:
				m.Internal(p, e.Sets)
			case computation.Send:
				// Monitor assigns its own ids in send order; since we
				// replay in a single linearization, ids match arrival
				// order, which the test tracks via a map.
				id := m.Send(p, e.Sets)
				msgIDs[e.Msg] = id
			case computation.Receive:
				if err := m.Receive(p, msgIDs[e.Msg], e.Sets); err != nil {
					t.Fatalf("receive: %v", err)
				}
			}
			seen++
			if step != nil {
				step(seen)
			}
			break
		}
	}
}

func TestEFWatchMatchesOfflinePrefixes(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(3, 15), seed)
		p := predicate.Conj(
			predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.GE, K: 2},
			predicate.VarCmp{Proc: 1, Var: "x0", Op: predicate.GE, K: 2},
			predicate.VarCmp{Proc: 2, Var: "x0", Op: predicate.GE, K: 1},
		)
		m := NewMonitor(comp.N())
		w := m.WatchEF(
			Cmp(0, "x0", ">=", 2),
			Cmp(1, "x0", ">=", 2),
			Cmp(2, "x0", ">=", 1),
		)
		fireCount := -1
		replay(t, comp, m, func(seen int) {
			if w.Fired() && fireCount < 0 {
				fireCount = seen
				// The produced cut must satisfy p on the snapshot.
				snap := m.Snapshot()
				if !snap.Consistent(w.Cut()) {
					t.Fatalf("seed %d: fired cut %v inconsistent", seed, w.Cut())
				}
				if !p.Eval(snap, w.Cut()) {
					t.Fatalf("seed %d: fired cut %v does not satisfy p", seed, w.Cut())
				}
			}
			// Online verdict must match offline EF on the prefix.
			want := core.EFLinear(m.Snapshot(), p)
			if w.Fired() != want {
				t.Fatalf("seed %d after %d events: online EF = %v, offline = %v",
					seed, seen, w.Fired(), want)
			}
		})
	}
}

func TestEFWatchFiresAtEarliestPrefix(t *testing.T) {
	// A deterministic scenario: the watch must fire exactly when the
	// second conjunct becomes true.
	m := NewMonitor(2)
	w := m.WatchEF(Cmp(0, "a", "==", 1), Cmp(1, "b", "==", 1))
	if w.Fired() {
		t.Fatal("fired before any conjunct holds")
	}
	m.Internal(0, map[string]int{"a": 1})
	if w.Fired() {
		t.Fatal("fired with only one conjunct true")
	}
	m.Internal(1, map[string]int{"b": 1})
	if !w.Fired() {
		t.Fatal("did not fire when both conjuncts hold")
	}
	if !w.Cut().Equal(computation.Cut{1, 1}) {
		t.Errorf("cut = %v, want <1 1>", w.Cut())
	}
}

func TestEFWatchRespectsCausality(t *testing.T) {
	// a=1 only while the message is unsent; b=1 only after receipt: the
	// two states can never coexist, so the watch must never fire.
	m := NewMonitor(2)
	w := m.WatchEF(Cmp(0, "a", "==", 1), Cmp(1, "b", "==", 1))
	m.Internal(0, map[string]int{"a": 1})
	id := m.Send(0, map[string]int{"a": 0})
	if err := m.Receive(1, id, map[string]int{"b": 1}); err != nil {
		t.Fatal(err)
	}
	if w.Fired() {
		t.Fatalf("fired at %v although the states are causally ordered", w.Cut())
	}
	// Offline agrees.
	p := predicate.Conj(
		predicate.VarCmp{Proc: 0, Var: "a", Op: predicate.EQ, K: 1},
		predicate.VarCmp{Proc: 1, Var: "b", Op: predicate.EQ, K: 1},
	)
	if core.EFLinear(m.Snapshot(), p) {
		t.Fatal("offline disagrees: EF should be false")
	}
}

func TestEFWatchInitialStates(t *testing.T) {
	m := NewMonitor(2)
	m.SetInitial(0, "a", 1)
	m.SetInitial(1, "b", 1)
	w := m.WatchEF(Cmp(0, "a", "==", 1), Cmp(1, "b", "==", 1))
	if !w.Fired() || !w.Cut().Equal(computation.Cut{0, 0}) {
		t.Fatalf("watch on initially-true conjuncts: fired=%v cut=%v", w.Fired(), w.Cut())
	}
	// Empty conjunction fires immediately at ∅.
	m2 := NewMonitor(1)
	if w2 := m2.WatchEF(); !w2.Fired() {
		t.Error("empty conjunction did not fire")
	}
}

func TestAGWatch(t *testing.T) {
	m := NewMonitor(2)
	w := m.WatchAG(Cmp(0, "x", "<=", 5), Cmp(1, "y", "<=", 5))
	m.Internal(0, map[string]int{"x": 3})
	m.Internal(1, map[string]int{"y": 5})
	if w.Violated() {
		t.Fatal("violated while invariant holds")
	}
	m.Internal(1, map[string]int{"y": 6})
	if !w.Violated() {
		t.Fatal("violation missed")
	}
	cut, local := w.Counterexample()
	if local != "y@P2 <= 5" {
		t.Errorf("failing conjunct = %q", local)
	}
	snap := m.Snapshot()
	if !snap.Consistent(cut) {
		t.Errorf("counterexample %v inconsistent", cut)
	}
	if v, _ := snap.Value(1, cut[1], "y"); v != 6 {
		t.Errorf("counterexample does not expose the bad state: y = %d", v)
	}
	// Offline A2 agrees on the snapshot.
	p := predicate.Conj(
		predicate.VarCmp{Proc: 0, Var: "x", Op: predicate.LE, K: 5},
		predicate.VarCmp{Proc: 1, Var: "y", Op: predicate.LE, K: 5},
	)
	if _, ok := core.AGLinear(snap, p); ok {
		t.Error("offline AG disagrees")
	}
}

func TestAGWatchMatchesOfflinePrefixes(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		comp := sim.Random(sim.DefaultRandomConfig(3, 12), seed)
		p := predicate.Conj(
			predicate.VarCmp{Proc: 0, Var: "x0", Op: predicate.LE, K: 2},
			predicate.VarCmp{Proc: 1, Var: "x1", Op: predicate.LE, K: 2},
		)
		m := NewMonitor(comp.N())
		w := m.WatchAG(Cmp(0, "x0", "<=", 2), Cmp(1, "x1", "<=", 2))
		replay(t, comp, m, func(seen int) {
			_, ok := core.AGLinear(m.Snapshot(), p)
			if w.Violated() != !ok {
				t.Fatalf("seed %d after %d events: online violated=%v, offline AG=%v",
					seed, seen, w.Violated(), ok)
			}
		})
	}
}

func TestStableWatch(t *testing.T) {
	m := NewMonitor(2)
	w := m.WatchStable("quiescent-done", func(m *Monitor) bool {
		return m.InFlight() == 0 && m.Value(1, "done") == 1
	})
	id := m.Send(0, nil)
	m.Internal(1, map[string]int{"done": 1})
	if w.Fired() {
		t.Fatal("fired with a message in flight")
	}
	if err := m.Receive(1, id, nil); err != nil {
		t.Fatal(err)
	}
	if !w.Fired() {
		t.Fatal("did not fire at quiescence")
	}
	if w.FiredAt() != 3 {
		t.Errorf("FiredAt = %d, want 3", w.FiredAt())
	}
}

func TestMonitorErrors(t *testing.T) {
	m := NewMonitor(2)
	if err := m.Receive(0, 99, nil); err == nil {
		t.Error("unknown message accepted")
	}
	id := m.Send(0, nil)
	if err := m.Receive(0, id, nil); err == nil {
		t.Error("self-receive accepted")
	}
	if err := m.Receive(1, id, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Receive(1, id, nil); err == nil {
		t.Error("duplicate receive accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("late WatchEF did not panic")
			}
		}()
		m.WatchEF(Cmp(0, "x", "==", 1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("late SetInitial did not panic")
			}
		}()
		m.SetInitial(0, "x", 1)
	}()
}

func TestMonitorDetectBridge(t *testing.T) {
	m := NewMonitor(2)
	id := m.Send(0, map[string]int{"x": 1})
	if err := m.Receive(1, id, map[string]int{"y": 1}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Detect(ctl.MustParse("EF(x@P1 == 1 && y@P2 == 1)"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Error("bridge detection failed")
	}
}

func TestSnapshotMatchesDirectBuild(t *testing.T) {
	comp := sim.Fig4()
	m := NewMonitor(comp.N())
	replay(t, comp, m, nil)
	snap := m.Snapshot()
	if snap.TotalEvents() != comp.TotalEvents() || snap.N() != comp.N() {
		t.Fatal("snapshot dimensions differ")
	}
	for i := 0; i < comp.N(); i++ {
		for k := 0; k <= comp.Len(i); k++ {
			for _, name := range comp.Vars(i) {
				a, _ := comp.Value(i, k, name)
				b, _ := snap.Value(i, k, name)
				if a != b {
					t.Errorf("value %s@P%d state %d: %d vs %d", name, i+1, k, a, b)
				}
			}
		}
		for k := 1; k <= comp.Len(i); k++ {
			if !comp.Event(i, k).Clock.Equal(snap.Event(i, k).Clock) {
				t.Errorf("clock mismatch at (%d,%d)", i, k)
			}
		}
	}
}

func ExampleMonitor() {
	m := NewMonitor(2)
	w := m.WatchEF(Cmp(0, "ready", "==", 1), Cmp(1, "ready", "==", 1))
	m.Internal(0, map[string]int{"ready": 1})
	fmt.Println(w.Fired())
	m.Internal(1, map[string]int{"ready": 1})
	fmt.Println(w.Fired(), w.Cut())
	// Output:
	// false
	// true <1 1>
}

// TestMonitorForgetsReceivedSends: a received message's send clock is
// released, so a bounded monitor's state does not grow with the number
// of messages it has seen, while every receive error stays typed.
func TestMonitorForgetsReceivedSends(t *testing.T) {
	m := NewBoundedMonitor(2)
	var last int
	for i := 0; i < 1000; i++ {
		last = m.Send(0, nil)
		if err := m.Receive(1, last, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.sends) != 0 || m.InFlight() != 0 {
		t.Fatalf("%d send clocks retained, %d in flight; want 0", len(m.sends), m.InFlight())
	}
	for _, tc := range []struct {
		id   int
		want string
	}{
		{last, fmt.Sprintf("online: message %d received twice", last)},
		{1, "online: message 1 received twice"},
		{0, "online: receive of unknown message 0"},
		{last + 1, fmt.Sprintf("online: receive of unknown message %d", last+1)},
		{-3, "online: receive of unknown message -3"},
	} {
		if err := m.Receive(1, tc.id, nil); err == nil || err.Error() != tc.want {
			t.Errorf("Receive(%d) = %v, want %q", tc.id, err, tc.want)
		}
	}
}
