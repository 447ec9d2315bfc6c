package client

import (
	"encoding/json"
	"net"
	"testing"

	"repro/internal/server"
)

// recordConn is a net.Conn that keeps the last write.
type recordConn struct {
	net.Conn
	last []byte
}

func (c *recordConn) Write(b []byte) (int, error) {
	c.last = append(c.last[:0], b...)
	return len(b), nil
}

// TestWriteWireCanonical checks the NDJSON ingest write: an init or
// event frame goes out as exactly json.Marshal's line, encoded into the
// session's reused buffer without allocating; other frames still take
// json.Marshal.
func TestWriteWireCanonical(t *testing.T) {
	s := &Session{}
	conn := &recordConn{}
	frames := []server.ClientFrame{
		{Type: server.FrameEvent, Seq: 3, Proc: 2, Kind: "send", Msg: 7, Sets: map[string]int{"y": 2, "x": -1}},
		{Type: server.FrameInit, Seq: 1, Proc: 1, Var: "x", Value: 5},
		{Type: server.FrameEvent, Proc: 1, Kind: "internal", Sets: map[string]int{"a<b": 1}}, // declined: HTML escape
		{Type: server.FrameSnapshot, ID: 1, Formula: "EF(x@P1 == 1)"},
	}
	for _, f := range frames {
		if err := s.writeWire(conn, f); err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(f)
		if string(conn.last) != string(want)+"\n" {
			t.Errorf("writeWire(%+v) wrote %q, want %q", f, conn.last, want)
		}
	}
	f := frames[0]
	if a := testing.AllocsPerRun(100, func() { s.writeWire(conn, f) }); a != 0 {
		t.Errorf("writing an event allocates %.0f times, want 0", a)
	}
}
