package client

import (
	"sync"
	"testing"

	"repro/internal/pir"
	"repro/internal/server"
)

// filledSession returns a session whose outbox holds frames seq 1..n,
// each with a batch, as sendLocked leaves them in reconnect mode.
func filledSession(n int) *Session {
	s := &Session{}
	s.space = sync.NewCond(&s.wmu)
	for i := 1; i <= n; i++ {
		s.outbox = append(s.outbox, server.ClientFrame{Type: server.FrameBatch, Seq: int64(i), Batch: &pir.Batch{}})
	}
	return s
}

// TestOutboxPruneCostPerAck: releasing acked frames costs the same per
// ack whatever the outbox length — no allocation at all, where copying
// the unacked tail on every ack made AckEvery=1 quadratic in the buffer
// size.
func TestOutboxPruneCostPerAck(t *testing.T) {
	const acks = 200
	for _, n := range []int{2 * acks, 64 << 10} {
		s := filledSession(n)
		seq := int64(0)
		allocs := testing.AllocsPerRun(acks, func() {
			seq++
			s.handleAck(seq)
		})
		if allocs != 0 {
			t.Errorf("outbox of %d: %.1f allocs per ack, want 0", n, allocs)
		}
	}
}

// TestOutboxPruneKeepsUnacked: pruning releases exactly the acked
// prefix, zeroes the released slots so their batches can be collected,
// and compaction keeps the unacked frames in order.
func TestOutboxPruneKeepsUnacked(t *testing.T) {
	const n = 100
	s := filledSession(n)
	backing := s.outbox[:cap(s.outbox)]
	for seq := int64(1); seq <= n; seq += 7 {
		s.handleAck(seq)
		live := s.outbox[s.outHead:]
		if len(live) != n-int(seq) {
			t.Fatalf("after ack %d: %d frames unacked, want %d", seq, len(live), n-int(seq))
		}
		for i, f := range live {
			if f.Seq != seq+1+int64(i) || f.Batch == nil {
				t.Fatalf("after ack %d: unacked frame %d = seq %d (batch %v)", seq, i, f.Seq, f.Batch != nil)
			}
		}
		for i, f := range backing {
			if (i < s.outHead || i >= len(s.outbox)) && f.Batch != nil {
				t.Fatalf("after ack %d: released slot %d still holds its batch", seq, i)
			}
		}
	}
	if len(s.outbox) == n {
		t.Fatal("outbox never compacted")
	}
}
