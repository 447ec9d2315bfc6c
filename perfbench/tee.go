package main

import (
	"bytes"
	"encoding/json"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
)

// receipts timestamps the server frames of one client session as their
// bytes come off the socket: a tee installed through client.Config.Dial
// sees every Read before the client's own reader decodes it. Resolution
// is one clock read at the Read that completes a line, so receipt is
// observed within the reader goroutine's wake-up (microseconds), far
// below any latency the benchmark reports.
type receipts struct {
	mu       sync.Mutex
	acks     []ackAt // ascending seq, in arrival order
	verdicts []verdictAt
	maxSeq   int64
	wake     chan struct{} // signaled on every ack; capacity 1 coalesces signals
}

type ackAt struct {
	seq int64
	at  time.Time
}

type verdictAt struct {
	watch, event int
	at           time.Time
}

func newReceipts() *receipts { return &receipts{wake: make(chan struct{}, 1)} }

// dial is the client.Config.Dial hook: a plain TCP dial wrapped in the tee.
func (r *receipts) dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &teeConn{Conn: c, r: r}, nil
}

type teeConn struct {
	net.Conn
	r       *receipts
	partial []byte // an incomplete line carried to the next Read
}

func (t *teeConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	if n > 0 {
		t.scan(p[:n], time.Now())
	}
	return n, err
}

var (
	ackPrefix     = []byte(`{"type":"ack"`)
	verdictPrefix = []byte(`{"type":"verdict"`)
	seqKey        = []byte(`"seq":`)
)

func (t *teeConn) scan(b []byte, now time.Time) {
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			t.partial = append(t.partial, b...)
			return
		}
		line := b[:i]
		if len(t.partial) > 0 {
			line = append(t.partial, line...)
			t.partial = t.partial[:0]
		}
		t.r.line(line, now)
		b = b[i+1:]
	}
}

// line records one complete server frame if it is an ack or a verdict.
func (r *receipts) line(line []byte, now time.Time) {
	switch {
	case bytes.HasPrefix(line, ackPrefix):
		j := bytes.Index(line, seqKey)
		if j < 0 {
			return
		}
		k := j + len(seqKey)
		e := k
		for e < len(line) && line[e] >= '0' && line[e] <= '9' {
			e++
		}
		seq, err := strconv.ParseInt(string(line[k:e]), 10, 64)
		if err != nil {
			return
		}
		r.mu.Lock()
		if seq > r.maxSeq {
			r.maxSeq = seq
			r.acks = append(r.acks, ackAt{seq, now})
		}
		r.mu.Unlock()
		select {
		case r.wake <- struct{}{}:
		default:
		}
	case bytes.HasPrefix(line, verdictPrefix):
		var fr server.ServerFrame
		if json.Unmarshal(line, &fr) != nil {
			return
		}
		r.mu.Lock()
		r.verdicts = append(r.verdicts, verdictAt{fr.Watch, fr.Event, now})
		r.mu.Unlock()
	}
}

// waitAck blocks until an ack covering seq has been received, or the
// deadline passes (false).
func (r *receipts) waitAck(seq int64, deadline time.Time) bool {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		r.mu.Lock()
		got := r.maxSeq
		r.mu.Unlock()
		if got >= seq {
			return true
		}
		select {
		case <-r.wake:
		case <-timer.C:
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.maxSeq >= seq
		}
	}
}

// ackTime returns when the first ack covering seq arrived.
func (r *receipts) ackTime(seq int64) (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lo, hi := 0, len(r.acks)
	for lo < hi {
		m := (lo + hi) / 2
		if r.acks[m].seq >= seq {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == len(r.acks) {
		return time.Time{}, false
	}
	return r.acks[lo].at, true
}
