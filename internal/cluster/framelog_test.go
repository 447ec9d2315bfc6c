package cluster_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/computation"
	"repro/internal/server"
	"repro/internal/server/client"
)

// TestClusterLogAcrossReconnectPromotes writes one session's frame log
// across a client reconnect whose replay interns variable names in a
// different order than the first connection did, then kills the owner:
// the replica must promote the log to verdicts bit-identical to offline
// detection. This is the case that rules out forwarding the client's
// raw binary frames: each connection's frames reference that
// connection's interning table, so a log mixing them is undecodable,
// while the self-contained entries the owner logs are not.
func TestClusterLogAcrossReconnectPromotes(t *testing.T) {
	h := startCluster(t, 3, false, 0)
	const key = "log-reconnect"
	succ := h.nodes[0].Ring().Successors(key, 2)
	owner, replica := h.index(succ[0]), h.index(succ[1])

	// The first connection declares x (inits), then a, then b. The
	// second connection's first frames declare b, then a, then x.
	steps := script(1)
	steps[1].sets = map[string]int{"a": 1}
	steps[3].sets = map[string]int{"b": 1}
	steps = append(steps[:4:4], append([]step{
		{proc: 0, kind: computation.Internal, sets: map[string]int{"b": 2}},
		{proc: 0, kind: computation.Internal, sets: map[string]int{"a": 2}},
	}, steps[4:]...)...)
	const stableAt = 7 // the two inserted events precede P3's receive

	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	cfg := clientConfig(key, h.ids, 5)
	cfg.Encoding = server.EncodingBinary
	cfg.BatchSize = 1 // one frame per init/event: the frame count is exact
	cfg.Durability = "durable"
	cfg.Dial = func(addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err == nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		return c, err
	}
	sess, err := client.Dial("", cfg)
	if err != nil {
		t.Fatal(err)
	}

	streamRange(sess, steps, 0, 4, true) // 3 inits + 4 events: x, a, b
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	pollAcked(t, sess, 6) // durable: acked frames are on the replica; frame 7 may be replayed

	mu.Lock()
	conns[len(conns)-1].Close() // the client reconnects to the owner and resumes
	mu.Unlock()
	streamRange(sess, steps, 4, 8, false) // b, a, then P3's receive of x
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	const logged = 3 + 8
	deadline := time.Now().Add(5 * time.Second)
	for h.regs[replica].Counter("hb_cluster_repl_frames_recv_total", "").Value() < logged {
		if time.Now().After(deadline) {
			t.Fatalf("replica holds %d frames, want %d",
				h.regs[replica].Counter("hb_cluster_repl_frames_recv_total", "").Value(), logged)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := sess.Stats(); st.Reconnects != 1 {
		t.Fatalf("reconnects before the kill = %d, want 1", st.Reconnects)
	}

	h.kls[owner].Kill()
	streamRange(sess, steps, 8, len(steps), false)
	gb, err := sess.Close()
	if err != nil {
		t.Fatalf("close after failover: %v", err)
	}
	if gb.Events != len(steps) || gb.Dropped != 0 {
		t.Fatalf("goodbye %d events (%d dropped), want %d (0)", gb.Events, gb.Dropped, len(steps))
	}
	if err := verifyVerdictsAt(t, steps, sess.Latched(), stableAt); err != nil {
		t.Fatal(err)
	}
	if v := h.regs[replica].Counter("hb_cluster_failovers_total", "").Value(); v != 1 {
		t.Errorf("replica failovers_total = %d, want 1", v)
	}
}

// replicaFrames returns the length of the replica log node holds for key
// (-1 if it holds none).
func replicaFrames(n *cluster.Node, key string) int {
	for _, r := range n.DebugState().(cluster.DebugCluster).Replicas {
		if r.Key == key {
			return r.Frames
		}
	}
	return -1
}

// TestReplMalformedFrameRefused: a repl-frame whose body does not decode
// is refused at the replica — the link drops, the log does not advance,
// and the ack for the frame before it is still delivered.
func TestReplMalformedFrameRefused(t *testing.T) {
	h := startCluster(t, 1, false, 0)
	const key = "malformed"
	d := dialRepl(t, h.ids[0], "wire-test")
	d.send(`{"type":"repl-open","session":"malformed","epoch":1,"hello":{"type":"hello","processes":3,"resumable":true,"session":"malformed"}}`)
	if m := d.recv(); m.Type != "repl-ack" || m.Seq != 0 {
		t.Fatalf("open reply = %+v, want ack seq 0", m)
	}
	// A batch entry referencing name index 0, which it never declares:
	// the entry is not self-contained.
	dangling := []byte{server.FrameMagic, 0x02, 0x01, 1 << 2, 0x01, 0x00, 0x02}
	d.write(append(replFrame(key, 1, initEntry(1)), replFrame(key, 1, dangling)...))
	if m := d.recv(); m.Type != "repl-ack" || m.Seq != 1 {
		t.Fatalf("reply = %+v, want ack seq 1 for the good frame", m)
	}
	if d.sc.Scan() {
		t.Fatalf("link survived a malformed frame: got %q", d.sc.Bytes())
	}
	if n := replicaFrames(h.nodes[0], key); n != 1 {
		t.Fatalf("replica log holds %d frames, want 1", n)
	}

	// The feeder reconnecting finds the log where the good frame left it.
	d = dialRepl(t, h.ids[0], "wire-test")
	d.send(`{"type":"repl-open","session":"malformed","epoch":1,"hello":{"type":"hello","processes":3,"resumable":true,"session":"malformed"}}`)
	if m := d.recv(); m.Type != "repl-ack" || m.Seq != 1 || m.Epoch != 1 {
		t.Fatalf("re-open reply = %+v, want ack seq 1 epoch 1", m)
	}
}

// TestReplAcksCoalesced: frames that arrive in one write are answered
// with fewer acks than frames, the last carrying the full high-water
// mark, and a reject is never reordered ahead of the acks before it.
func TestReplAcksCoalesced(t *testing.T) {
	h := startCluster(t, 1, false, 0)
	const key = "coalesce"
	d := dialRepl(t, h.ids[0], "wire-test")
	open := func(epoch int) []byte {
		return []byte(fmt.Sprintf(`{"type":"repl-open","session":%q,"epoch":%d,"hello":{"type":"hello","processes":3,"resumable":true,"session":%q}}`+"\n", key, epoch, key))
	}
	d.write(open(2))
	if m := d.recv(); m.Type != "repl-ack" || m.Seq != 0 {
		t.Fatalf("open reply = %+v, want ack seq 0", m)
	}

	const n = 200
	var burst []byte
	for seq := int64(1); seq <= n; seq++ {
		burst = append(burst, replFrame(key, 2, initEntry(seq))...)
	}
	d.write(burst)
	acks := 0
	for last := int64(0); last < n; {
		m := d.recv()
		if m.Type != "repl-ack" || m.Seq <= last {
			t.Fatalf("reply %+v after ack %d, want a higher ack", m, last)
		}
		last = m.Seq
		acks++
	}
	if acks >= n {
		t.Errorf("%d acks for %d frames in one write, want coalesced", acks, n)
	}

	// frame, frame, stale open, frame — in one write.
	var mixed []byte
	mixed = append(mixed, replFrame(key, 2, initEntry(n+1))...)
	mixed = append(mixed, replFrame(key, 2, initEntry(n+2))...)
	mixed = append(mixed, open(1)...)
	mixed = append(mixed, replFrame(key, 2, initEntry(n+3))...)
	d.write(mixed)
	var last int64
	for {
		m := d.recv()
		if m.Type == "repl-reject" {
			if last != n+2 {
				t.Fatalf("reject arrived after ack %d, want after ack %d", last, n+2)
			}
			break
		}
		if m.Type != "repl-ack" {
			t.Fatalf("reply %+v, want acks then the reject", m)
		}
		last = m.Seq
	}
	if m := d.recv(); m.Type != "repl-ack" || m.Seq != n+3 {
		t.Fatalf("reply after the reject = %+v, want ack %d", m, n+3)
	}
}
