package cluster

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/pir"
	"repro/internal/server"
)

// TestFrameLogEntryRoundTrip: every accepted frame decodes from its log
// entry to a frame that applies exactly as the original did. Valid
// batches take the binary encoding; batches the binary encoding would
// alter, and init/event frames carrying stray batch columns, keep their
// NDJSON form so replay reproduces their rejection (or their ignored
// columns) verbatim.
func TestFrameLogEntryRoundTrip(t *testing.T) {
	valid := &pir.Batch{}
	valid.AddInit(1, "x", 0)
	valid.AddEvent(2, pir.EvSend, 7, map[string]int{"y": -3})
	valid.AddEvent(1, pir.EvInternal, 0, map[string]int{"x": 1 << 40})
	var invalid, negProc pir.Batch
	if err := json.Unmarshal([]byte(`{"procs":[1,1],"kinds":"AAA=","setoff":[0,1],"sets":[{"n":"x","v":1}]}`), &invalid); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"procs":[-1],"kinds":"AA==","setoff":[0,0]}`), &negProc); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		f      server.ClientFrame
		binary bool
	}{
		{"batch", server.ClientFrame{Type: server.FrameBatch, Seq: 3, Batch: valid}, true},
		{"invalid batch", server.ClientFrame{Type: server.FrameBatch, Seq: 4, Batch: &invalid}, false},
		{"negative proc", server.ClientFrame{Type: server.FrameBatch, Seq: 5, Batch: &negProc}, false},
		{"event with stray batch", server.ClientFrame{Type: server.FrameEvent, Seq: 6, Proc: 1, Kind: "internal", Batch: valid}, false},
		{"init", server.ClientFrame{Type: server.FrameInit, Seq: 1, Proc: 2, Var: "x", Value: 9}, false},
		{"event", server.ClientFrame{Type: server.FrameEvent, Seq: 2, Proc: 1, Kind: "send", Msg: 4, Sets: map[string]int{"a": 1, "b": 2}}, false},
		{"bye", server.ClientFrame{Type: server.FrameBye, Seq: 7}, false},
	}
	var vt pir.VarTable
	for _, c := range cases {
		e := appendEntry(nil, c.f, &vt)
		if got := e[0] == server.FrameMagic; got != c.binary {
			t.Errorf("%s: binary entry = %v, want %v", c.name, got, c.binary)
		}
		got, err := decodeEntry(e, &vt)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if c.binary {
			// Binary decoding materializes the msgs column; apply reads it
			// only through Msg, so compare per event.
			if got.Type != c.f.Type || got.Seq != c.f.Seq || !reflect.DeepEqual(got.Batch.Procs, c.f.Batch.Procs) ||
				!reflect.DeepEqual(got.Batch.Kinds, c.f.Batch.Kinds) || !reflect.DeepEqual(got.Batch.SetOff, c.f.Batch.SetOff) ||
				!reflect.DeepEqual(got.Batch.Sets, c.f.Batch.Sets) {
				t.Errorf("%s: decoded %+v (batch %+v), want %+v", c.name, got, got.Batch, c.f.Batch)
			}
			for i := 0; i < c.f.Batch.Len(); i++ {
				if got.Batch.Msg(i) != c.f.Batch.Msg(i) {
					t.Errorf("%s: event %d msg %d, want %d", c.name, i, got.Batch.Msg(i), c.f.Batch.Msg(i))
				}
			}
			got.Batch.Recycle()
			continue
		}
		if !reflect.DeepEqual(got, c.f) {
			t.Errorf("%s: decoded %+v, want %+v", c.name, got, c.f)
		}
	}
}

// TestFrameLogSnapshotIsolated: a snapshot keeps its entries while the
// source log grows past it, and appending to the snapshot never writes
// into the source's chunk.
func TestFrameLogSnapshotIsolated(t *testing.T) {
	var l frameLog
	l.add([]byte("one"))
	l.add([]byte("two"))
	s := l.snapshot()
	l.add([]byte("three"))
	s.add([]byte("FOUR!"))
	if l.Len() != 3 || string(l.entries[2]) != "three" {
		t.Fatalf("source log = %q", l.entries)
	}
	if s.Len() != 3 || string(s.entries[0]) != "one" || string(s.entries[2]) != "FOUR!" {
		t.Fatalf("snapshot = %q", s.entries)
	}
	big := make([]byte, 3*maxLogChunk)
	l.add(big)
	if len(l.entries[3]) != len(big) {
		t.Fatalf("oversized entry stored as %d bytes", len(l.entries[3]))
	}
}
