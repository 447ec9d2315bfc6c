package computation_test

import (
	"testing"

	"repro/internal/computation"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// TestBuiltClocksMatchMessageOrder recomputes every event's vector clock
// from the message order along one linearization and checks it against
// the clock Build packed into the process slab. Rows are capped to their
// own length, so an append through one clock cannot write into the next.
func TestBuiltClocksMatchMessageOrder(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		comp := sim.Random(sim.RandomConfig{Procs: 1 + int(seed)%6, Events: 10 + int(seed), SendProb: 0.4,
			RecvProb: 0.7, Vars: 1, ValRange: 3}, seed)
		n := comp.N()
		running := make([]vclock.VC, n)
		for i := range running {
			running[i] = vclock.New(n)
		}
		atSend := map[int]vclock.VC{}
		lin := comp.SomeLinearization()
		for s := 1; s < len(lin); s++ {
			i := 0
			for lin[s][i] == lin[s-1][i] {
				i++
			}
			e := comp.Event(i, lin[s][i])
			if e.Kind == computation.Receive {
				running[i].MergeInto(atSend[e.Msg])
			}
			running[i].Tick(i)
			if e.Kind == computation.Send {
				atSend[e.Msg] = running[i].Copy()
			}
			if !e.Clock.Equal(running[i]) {
				t.Fatalf("seed %d: event %v clock %v, recomputed %v", seed, e, e.Clock, running[i])
			}
			if cap(e.Clock) != n {
				t.Fatalf("seed %d: event %v clock row has capacity %d, want %d", seed, e, cap(e.Clock), n)
			}
		}
	}
}
