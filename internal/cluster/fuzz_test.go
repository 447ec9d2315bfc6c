package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

// fuzzCluster starts the single-node cluster FuzzReplProtocol hammers,
// shut down when the fuzz target finishes. One node serves every
// iteration, which keeps iterations cheap, and the per-iteration
// handshake doubles as the liveness probe — if a previous input wedged
// the replica handler, the next repl-welcome never arrives.
func fuzzCluster(f *testing.F) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	id := ln.Addr().String()
	reg := obs.NewRegistry()
	node, err := cluster.New(
		server.Config{Registry: reg, ReadTimeout: time.Second, IdleTimeout: time.Second},
		cluster.NodeConfig{Self: id, Peers: []string{id}, Replicas: 2, Registry: reg},
	)
	if err != nil {
		f.Fatal(err)
	}
	go node.Serve(ln) //nolint:errcheck // closed by Shutdown
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		node.Shutdown(ctx) //nolint:errcheck
	})
	return id
}

// FuzzReplProtocol throws arbitrary bytes at the replica side of the
// replication protocol, after a well-formed repl-hello handshake — a
// hostile or buggy peer that authenticated as a cluster member. Seeds
// cover the epoch-fencing edges: negative and overflowing epochs,
// stale-epoch floods, handoff offers for unknown sessions and handoff
// replays, frames before their open, and malformed JSON; and the binary
// repl-frame's own edges: a truncated envelope, a key running past the
// payload, an unknown binary type, and malformed frame bodies. The
// property is the node never panics and never wedges: every
// iteration's handshake must succeed, whatever the previous one sent.
func FuzzReplProtocol(f *testing.F) {
	open := func(key string, epoch string) []byte {
		return []byte(`{"type":"repl-open","session":"` + key + `","epoch":` + epoch +
			`,"hello":{"type":"hello","processes":3,"resumable":true,"session":"` + key + `"}}` + "\n")
	}
	frame := func(key string, epoch, seq int64) []byte {
		return replFrame(key, epoch, initEntry(seq))
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	const maxInt64 = 1<<63 - 1
	f.Add(open("k", "-1"))
	f.Add(open("k", "-9223372036854775808"))
	f.Add(cat(open("k", "9223372036854775807"), frame("k", maxInt64, 1)))
	f.Add(cat(open("k", "5"), frame("k", 5, 1), open("k", "7"), frame("k", 5, 2)))
	f.Add(cat(open("k", "9"), open("k", "8"), open("k", "7"), open("k", "6"), open("k", "5"))) // stale flood
	f.Add(frame("k", 1, 1))                                                                    // frame before open
	f.Add(cat(open("k", "2"), []byte(`{"type":"repl-handoff","session":"k","epoch":3,"seq":0}`+"\n"+
		`{"type":"repl-handoff","session":"k","epoch":3,"seq":0}`+"\n"))) // handoff replay
	f.Add([]byte(`{"type":"repl-handoff","session":"ghost","epoch":1,"seq":5}` + "\n"))
	f.Add([]byte(`{"type":"repl-hello","from":"again"}` + "\n")) // hello mid-stream
	f.Add([]byte(`{"type":"repl-ack","session":"k","seq":1}` + "\n"))
	f.Add([]byte(`{"type":"repl-open","session":"","epoch":1}` + "\n"))
	f.Add(cat(open("k", "1"), frame("k", 1, -1), frame("k", 1, maxInt64)))
	f.Add([]byte("not json\n"))
	f.Add([]byte{0x00, 0xff, '\n'})
	// The old NDJSON repl-frame is a protocol error now.
	f.Add(cat(open("k", "1"), []byte(`{"type":"repl-frame","session":"k","epoch":1,"frame":{"type":"init","proc":1,"var":"x","value":1,"seq":1}}`+"\n")))
	good := frame("k", 1, 1)
	f.Add(cat(open("k", "1"), good[:len(good)-7]))                                                          // truncated envelope
	f.Add(cat(open("k", "1"), server.AppendBinaryFrame(nil, server.BinReplFrame, []byte{0x02, 0x7f, 'k'}))) // key past the payload
	f.Add(cat(open("k", "1"), server.AppendBinaryFrame(nil, 0x7f, []byte{0x02, 0x01, 'k'})))                // unknown binary type
	f.Add(cat(open("k", "1"), server.AppendBinaryFrame(nil, server.BinBatch, []byte{0x01, 0x00})))          // client batch on a repl link
	// Bad bodies: a batch entry whose name reference dangles (the entry
	// must declare every name it uses), trailing bytes after a batch, and
	// an NDJSON entry of a non-ingest frame type.
	f.Add(cat(open("k", "1"), replFrame("k", 1, []byte{server.FrameMagic, 0x01, 0x01, 1 << 2, 0x01, 0x00, 0x02})))
	f.Add(cat(open("k", "1"), replFrame("k", 1, []byte{server.FrameMagic, 0x01, 0x00, 0xff})))
	f.Add(cat(open("k", "1"), replFrame("k", 1, []byte(`{"type":"snapshot","seq":1,"formula":"EF(x@P1 == 1)"}`))))
	addr := fuzzCluster(f)
	var sentinelEpoch atomic.Int64 // the last sentinel incarnation

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Skip("node saturated") // accept backlog under fuzz load
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(3 * time.Second))
		if _, err := conn.Write([]byte(`{"type":"repl-hello","from":"fuzz"}` + "\n")); err != nil {
			t.Skip("handshake write lost to a racing shutdown")
		}
		sc := server.NewFrameScanner(conn)
		if !sc.Scan() {
			t.Fatalf("no repl-welcome: the previous input wedged the replica handler (%v)", sc.Err())
		}
		// After the input, a sentinel: a repl-open plus one repl-frame for a
		// fresh incarnation of the sentinel key (a new epoch each
		// iteration fences the previous one's log, so the node holds one
		// sentinel log, not one per iteration). Its repl-ack proves the
		// handler consumed everything before it, so the iteration ends
		// there instead of waiting out the quiet deadline. The deadline
		// still ends an iteration whose input swallowed the sentinel (a
		// truncated frame reading it as its own body).
		epoch := sentinelEpoch.Add(1)
		conn.Write(cat(data, open("sentinel", fmt.Sprint(epoch)), frame("sentinel", epoch, 1))) //nolint:errcheck // the node may reject mid-write
		// Drain replies until the sentinel's ack, the node closing the
		// link, or a short quiet deadline; the scanner bounds every frame
		// exactly as serveRepl's peer would see it.
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		for sc.Scan() {
			var m struct {
				Type, Session string
				Epoch, Seq    int64
			}
			if !sc.Binary() && json.Unmarshal(sc.Bytes(), &m) == nil && m.Type == "repl-ack" && m.Session == "sentinel" && m.Epoch == epoch && m.Seq == 1 {
				return
			}
		}
	})
}
