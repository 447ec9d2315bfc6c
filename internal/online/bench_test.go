package online

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/computation"
	"repro/internal/sim"
)

// BenchmarkMonitorThroughput measures event-ingestion cost with an active
// EF watch — the online algorithm's per-event overhead.
func BenchmarkMonitorThroughput(b *testing.B) {
	for _, events := range []int{500, 2000} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 3)
		b.Run(fmt.Sprintf("E%d", events), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := NewMonitor(comp.N())
				m.WatchEF(
					Cmp(0, "x0", ">=", 3), // never fires: values stay < 3... may fire; cost is what matters
					Cmp(1, "x0", ">=", 3),
				)
				feed(b, comp, m)
			}
		})
	}
}

// BenchmarkEFWatchWide measures head-elimination cost on the wide
// ping-pong computation (many bystander heads, two churning processes) —
// the scenario where a full pairwise rescan per pop is quadratic in the
// process count while the in-place worklist stays linear.
func BenchmarkEFWatchWide(b *testing.B) {
	for _, procs := range []int{8, 40} {
		b.Run(fmt.Sprintf("P%d", procs), func(b *testing.B) {
			const rounds = 200
			for i := 0; i < b.N; i++ {
				m := NewMonitor(procs)
				w := wideWatch(m, procs)
				wideEliminationRounds(m, rounds)
				if w.Fired() {
					b.Fatal("watch fired mid-churn")
				}
			}
			b.ReportMetric(float64(6*rounds), "events/op")
		})
	}
}

// BenchmarkMonitorLatchedWatches measures per-event cost beside a growing
// number of watches that have already latched: 0, 200 or 2000 EF and AG
// watches spread over four processes, each latched by a warm-up event,
// next to a live EF watch kept busy by head elimination (the ping-pong
// of wideEliminationRounds) and a live AG watch. Latched watches are
// retired from dispatch, so ns/event and allocs/event should not depend
// on their number.
func BenchmarkMonitorLatchedWatches(b *testing.B) {
	const procs = 4
	for _, latched := range []int{0, 200, 2000} {
		b.Run(fmt.Sprintf("L%d", latched), func(b *testing.B) {
			m := NewBoundedMonitor(procs)
			for i := 0; i < latched; i++ {
				if p := i % procs; i%2 == 0 {
					m.WatchEF(Cmp(p, "warm", "==", 1))
				} else {
					m.WatchAG(Cmp(p, "warm", "==", 0))
				}
			}
			live := m.WatchEF(Cmp(0, "flag", "==", 1), Cmp(1, "flag", "==", 1))
			m.WatchAG(Cmp(0, "flag", "<=", 1))
			warm := map[string]int{"warm": 1}
			for p := 0; p < procs; p++ {
				m.Internal(p, warm)
			}
			flag1, flag0 := map[string]int{"flag": 1}, map[string]int{"flag": 0}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ { // one ping-pong round: 6 events
				m.Internal(0, flag1)
				id := m.Send(0, flag0)
				if err := m.Receive(1, id, nil); err != nil {
					b.Fatal(err)
				}
				m.Internal(1, flag1)
				id = m.Send(1, flag0)
				if err := m.Receive(0, id, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if live.Fired() {
				b.Fatal("live watch fired mid-churn")
			}
			events := float64(6 * b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "allocs/event")
		})
	}
}

// BenchmarkSnapshot measures the cost of the offline bridge.
func BenchmarkSnapshot(b *testing.B) {
	comp := sim.Random(sim.DefaultRandomConfig(4, 2000), 3)
	m := NewMonitor(comp.N())
	feed(b, comp, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Snapshot()
	}
}

func feed(tb testing.TB, comp *computation.Computation, m *Monitor) {
	tb.Helper()
	ids := make(map[int]int)
	seq := comp.SomeLinearization()
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
				ids[e.Msg] = m.Send(p, e.Sets)
			case computation.Receive:
				if err := m.Receive(p, ids[e.Msg], e.Sets); err != nil {
					tb.Fatal(err)
				}
			}
			break
		}
	}
}
