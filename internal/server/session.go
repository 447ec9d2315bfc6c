package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/pir"
)

// Ingest errors.
var (
	// ErrClosed reports ingest into a session that is closing or closed.
	ErrClosed = errors.New("server: session closed")
	// ErrDropped reports an event shed by the drop overflow policy. The
	// drop is already counted on the session and the registry.
	ErrDropped = errors.New("server: event dropped (queue full)")
)

// SessionConfig describes a session to Open: the hello frame's payload.
type SessionConfig struct {
	// ID fixes the session id instead of auto-assigning one. Cluster mode
	// sets it to the client-chosen placement key; it must pass ValidateKey
	// and be unique among live sessions. Empty means auto-assign.
	ID        string
	Processes int
	Watches   []Watch
	// Resumable sessions journal accepted sequenced frames, ack them,
	// and survive transport loss: a dropped connection detaches instead
	// of closing, and a resume frame reattaches. Resumable sessions
	// always apply backpressure — the drop overflow policy would break
	// the exactly-once contract.
	Resumable bool
	// Bounded sessions run their monitor in bounded-state mode: the raw
	// event prefix is not retained, only the frontier and the watches'
	// slice cursors, so per-session memory is O(n + slice) instead of
	// O(events). Verdicts and their cuts are bit-identical to an
	// unbounded session; snapshot queries are rejected.
	Bounded bool
	// Durability is the hello's requested cluster durability mode
	// ("available", "durable", or empty for the node default). The server
	// itself only carries the string; the cluster hooks interpret it.
	Durability string
}

// watchState tracks one registered watch through the session's lifetime.
// Only the monitor loop touches it after registration.
type watchState struct {
	op     string
	pred   string
	locals []online.LocalSpec
	ef     *online.EFWatch
	ag     *online.AGWatch
	st     *online.StableWatch
}

// buildWatches parses and validates the watch list of a hello frame
// against the session's process count.
func buildWatches(n int, watches []Watch) ([]*watchState, error) {
	ws := make([]*watchState, 0, len(watches))
	for i, w := range watches {
		switch w.Op {
		case "EF", "AG", "STABLE":
		default:
			return nil, fmt.Errorf("server: watch %d: unknown op %q (want EF, AG or STABLE)", i, w.Op)
		}
		locals, err := online.ParseConj(w.Pred)
		if err != nil {
			return nil, fmt.Errorf("server: watch %d: %v", i, err)
		}
		for _, l := range locals {
			if l.Proc < 0 || l.Proc >= n {
				return nil, fmt.Errorf("server: watch %d: conjunct %s on process outside [1,%d]", i, l.Name, n)
			}
		}
		ws = append(ws, &watchState{op: w.Op, pred: w.Pred, locals: locals})
	}
	return ws, nil
}

// inFrame is one queued unit of ingest work.
type inFrame struct {
	f    ClientFrame
	enq  time.Time
	resp chan ServerFrame // non-nil for requests awaiting an in-band reply
	span *obs.Span        // the frame's pipeline span (nil when tracing is off)
	// enqSpan is the frame's enqueue stage. The monitor loop ends it on
	// dequeue, before the apply stage starts; the transport ends it only
	// when the frame never reaches the queue.
	enqSpan *obs.Span
}

// attachment is one transport subscription (a TCP connection's writer).
// done is closed when the transport goes away, so an emit blocked on a
// full channel never wedges the monitor loop on a dead connection.
type attachment struct {
	ch       chan ServerFrame
	done     chan struct{}
	doneOnce sync.Once
}

func newAttachment() *attachment {
	return &attachment{ch: make(chan ServerFrame, 64), done: make(chan struct{})}
}

// close marks the transport gone. Safe to call multiple times.
func (a *attachment) close() { a.doneOnce.Do(func() { close(a.done) }) }

// journalEntry is one accepted sequenced frame in the session journal.
type journalEntry struct {
	Seq  int64
	Type string
	Proc int
}

// seqVerdict is the transport-side triage of a sequenced frame.
type seqVerdict int

const (
	seqAccept seqVerdict = iota // next-in-order: enqueue it
	seqDup                      // already accepted: drop idempotently
	seqGap                      // frames lost in flight: drop the connection
)

// Session is one detection session: a bounded ingest queue feeding a
// serialized monitor loop. Transports enqueue concurrently; the loop is
// the only goroutine that touches the monitor and the watches, so
// detection state needs no locks and every verdict is attributed to the
// exact event prefix that determined it.
type Session struct {
	srv *Server
	id  string
	n   int

	queue chan inFrame
	stop  chan struct{} // closed by Close: the loop drains and exits
	done  chan struct{} // closed when the loop has exited

	// Owned by the monitor loop.
	mon        *online.Monitor
	watches    []*watchState
	pending    []int          // indices of the watches still awaiting a verdict, ascending
	curSpan    *obs.Span      // the frame span being applied (verdict spans parent here)
	registered bool           // watches registered (deferred until the first event)
	msgIDs     map[int]int    // wire msg id → monitor msg id
	scratch    map[string]int // reused per batched event (the monitor copies sets)
	seen       int            // events applied
	retained   int64          // last Retained() published to the gauge
	journal    []journalEntry
	jnext      int // ring cursor once the journal reaches the retention window

	mu      sync.Mutex
	att     *attachment   // attached transport (TCP writer), nil for HTTP/detached sessions
	frames  []ServerFrame // latched verdict and error frames, for HTTP pull and resume replay
	goodbye *ServerFrame
	reason  string

	tracer *obs.Tracer // from Config; nil disables pipeline spans
	span   *obs.Span   // per-session root span (nil when tracing is off)

	resumable bool
	enqSeq    atomic.Int64 // high-water sequenced frame accepted by the transport
	ackSeq    atomic.Int64 // high-water sequenced frame applied by the loop
	dupes     atomic.Int64 // duplicate sequenced frames idempotently dropped
	journaled atomic.Int64 // event frames journaled (reconciles with events)

	events     atomic.Int64
	dropped    atomic.Int64
	lastActive atomic.Int64 // unix nanos of the last ingested frame
	latNanos   atomic.Int64 // summed ingest latency, for per-session stats
	superseded atomic.Bool  // fenced by a newer incarnation: skip the morgue on finish
	closeOnce  sync.Once
}

func newSession(srv *Server, id string, n int, watches []*watchState, bounded bool) *Session {
	mon := online.NewMonitor(n)
	if bounded {
		mon = online.NewBoundedMonitor(n)
	}
	s := &Session{
		srv:     srv,
		id:      id,
		n:       n,
		queue:   make(chan inFrame, srv.cfg.QueueDepth),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		mon:     mon,
		watches: watches,
		msgIDs:  make(map[int]int),
		tracer:  srv.cfg.Tracer,
	}
	// The per-session root span: every frame span of this session parents
	// here, so one trace id covers the session's full pipeline traversal.
	s.span = s.tracer.Start("session")
	s.span.Set("service", "session").Set("session", id).Set("processes", n)
	s.lastActive.Store(time.Now().UnixNano())
	return s
}

// ID returns the server-assigned session id.
func (s *Session) ID() string { return s.id }

// N returns the session's process count.
func (s *Session) N() int { return s.n }

// Events returns the number of events applied to the monitor.
func (s *Session) Events() int64 { return s.events.Load() }

// Dropped returns the number of events shed by the overflow policy.
func (s *Session) Dropped() int64 { return s.dropped.Load() }

// Resumable reports whether the session survives transport loss.
func (s *Session) Resumable() bool { return s.resumable }

// AckedSeq returns the highest sequenced frame applied by the monitor
// loop — everything a client may safely release from its buffer.
func (s *Session) AckedSeq() int64 { return s.ackSeq.Load() }

// Duplicates returns the sequenced frames idempotently dropped.
func (s *Session) Duplicates() int64 { return s.dupes.Load() }

// Journaled returns the event frames recorded in the session journal —
// by construction equal to Events on a resumable session, and asserted
// so by the chaos suite (accepted == journaled == detected).
func (s *Session) Journaled() int64 { return s.journaled.Load() }

// AvgIngest returns the mean enqueue-to-applied latency of this
// session's events — the per-session view of hb_server_ingest_seconds.
func (s *Session) AvgIngest() time.Duration {
	n := s.events.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(s.latNanos.Load() / n)
}

// Frames returns a copy of the latched verdict and error frames, in
// latch order — the pull interface used by the HTTP API.
func (s *Session) Frames() []ServerFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ServerFrame(nil), s.frames...)
}

// Goodbye returns the final accounting frame once the session has
// finished (Done is closed), or nil before.
func (s *Session) Goodbye() *ServerFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.goodbye
}

// Done returns a channel closed when the monitor loop has exited and the
// session has been removed from the server.
func (s *Session) Done() <-chan struct{} { return s.done }

// spanCtx is the session root span's context; transport-side spans
// (accept, decode) parent here. Zero when tracing is off.
func (s *Session) spanCtx() obs.SpanContext { return s.span.Context() }

// Welcome returns the session's welcome frame.
func (s *Session) Welcome() ServerFrame {
	return ServerFrame{Type: FrameWelcome, Session: s.id, Processes: s.n, Watches: len(s.watches)}
}

// attach registers the transport subscriber; latched frames are pushed
// to it as they happen. Attach before ingesting, or pull via Frames.
func (s *Session) attach(att *attachment) {
	s.mu.Lock()
	s.att = att
	s.mu.Unlock()
}

// detach removes att if it is still the attached transport. A resumable
// session keeps running detached — frames latch into the record and a
// later resume replays them.
func (s *Session) detach(att *attachment) {
	s.mu.Lock()
	if s.att == att {
		s.att = nil
	}
	s.mu.Unlock()
	att.close()
}

// Kick severs the attached transport, if any: its reader unblocks and
// the connection tears down as if the client had vanished, while the
// session itself keeps running. The attachment pointer is deliberately
// left in place — the dying reader clears it via detach, and until then
// tryResume's busy check keeps a successor from ingesting interleaved.
// The cluster uses Kick to detach a client before a drain handoff and
// when a session is superseded by a newer incarnation.
func (s *Session) Kick() {
	s.mu.Lock()
	att := s.att
	s.mu.Unlock()
	if att != nil {
		att.close()
	}
}

// tryResume validates a resume request and, atomically with the checks,
// installs att and snapshots the recorded frames for replay. Holding mu
// across both means no frame can latch between the snapshot and the
// attachment — record-before-push plus replay-from-record is lossless.
// A second resume while a transport is attached is rejected (CodeBusy):
// the first loser of a connection must be detached — by its reader
// noticing the close, or by the read deadline — before a successor may
// take over, so two clients can never ingest interleaved.
func (s *Session) tryResume(clientSeq int64, att *attachment) (int64, []ServerFrame, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.resumable {
		return 0, nil, CodeNotResumable, errors.New("server: session is not resumable")
	}
	select {
	case <-s.stop:
		return 0, nil, CodeUnknownSession, errors.New("server: session closing")
	default:
	}
	if s.att != nil {
		return 0, nil, CodeBusy, errors.New("server: a transport is still attached (concurrent resume, or the previous connection has not timed out yet)")
	}
	enq := s.enqSeq.Load()
	if clientSeq > enq {
		return 0, nil, CodeBadSeq, fmt.Errorf("server: resume seq %d is ahead of anything accepted (%d)", clientSeq, enq)
	}
	if enq-clientSeq > int64(s.srv.cfg.RetentionWindow) {
		return 0, nil, CodeStaleSeq, fmt.Errorf("server: resume seq %d is %d frames behind, beyond the retention window %d",
			clientSeq, enq-clientSeq, s.srv.cfg.RetentionWindow)
	}
	s.att = att
	replay := append([]ServerFrame(nil), s.frames...)
	s.lastActive.Store(time.Now().UnixNano())
	return enq, replay, "", nil
}

// acceptSeq triages one sequenced frame on the attached transport:
// next-in-order advances the accept high-water mark, an already-accepted
// seq is a redelivery to drop, and anything further ahead means frames
// were lost — the transport must drop the connection and force a resume.
// Only the single attached transport calls this, so the read-then-store
// is race-free; the atomic makes the mark visible to tryResume.
func (s *Session) acceptSeq(seq int64) seqVerdict {
	enq := s.enqSeq.Load()
	switch {
	case seq <= enq:
		s.dupes.Add(1)
		s.srv.met.duplicates.Inc()
		return seqDup
	case seq == enq+1:
		s.enqSeq.Store(seq)
		return seqAccept
	default:
		return seqGap
	}
}

// Close stops the session: ingest ends, the monitor loop drains whatever
// was queued, emits the goodbye frame, and the session is removed from
// the server. Safe to call multiple times; the first reason wins.
func (s *Session) Close(reason string) {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.reason = reason
		s.mu.Unlock()
		close(s.stop)
	})
}

// Ingest enqueues one frame, applying the server's overflow policy when
// the session queue is full: block propagates backpressure to the
// caller, drop sheds the event (counted on the session and the
// registry). Only event frames are ever dropped; init and snapshot
// frames always block.
func (s *Session) Ingest(f ClientFrame) error {
	return s.enqueue(inFrame{f: f, enq: time.Now()})
}

func (s *Session) enqueue(in inFrame) error {
	if s.tracer != nil && in.f.Type != frameFlush {
		// The frame span starts at ingest time and ends when the monitor
		// loop has applied the frame; its children are the pipeline stages.
		fs := s.tracer.StartAt("frame", s.span.Context(), in.enq)
		fs.Set("service", "transport").Set("type", in.f.Type)
		if in.f.Proc != 0 {
			fs.Set("proc", in.f.Proc)
		}
		if in.f.Seq != 0 {
			fs.Set("seq", in.f.Seq)
		}
		in.span = fs
		in.enqSpan = fs.StartChild("enqueue").Set("service", "transport")
	}
	start := time.Now()
	err := s.enqueueRaw(in)
	if in.f.Type != frameFlush { // flush barriers would skew the stage
		s.srv.met.stage(StageEnqueue, time.Since(start))
	}
	if err != nil && in.span != nil {
		// The frame never reaches the monitor loop; close its spans here.
		in.enqSpan.End()
		in.span.Set("error", err.Error())
		in.span.End()
	}
	return err
}

func (s *Session) enqueueRaw(in inFrame) error {
	// Resumable sessions always block: shedding an accepted sequenced
	// frame would violate exactly-once ingestion (the client has been
	// told, via the seq high-water mark, not to resend it).
	if s.srv.cfg.Overflow == OverflowDrop && !s.resumable && in.f.Type == FrameEvent {
		select {
		case s.queue <- in:
			return nil
		case <-s.stop:
			return ErrClosed
		default:
			s.dropped.Add(1)
			s.srv.met.dropped.Inc()
			return ErrDropped
		}
	}
	select {
	case s.queue <- in:
		return nil
	case <-s.stop:
		return ErrClosed
	}
}

// frameFlush is an internal queue barrier (never valid on the wire).
const frameFlush = "flush"

// Flush blocks until every frame enqueued before it has been applied by
// the monitor loop — the barrier the HTTP batch ack uses so its
// accounting covers the batch it acknowledges.
func (s *Session) Flush() error {
	resp := make(chan ServerFrame, 1)
	if err := s.enqueue(inFrame{f: ClientFrame{Type: frameFlush}, resp: resp}); err != nil {
		return err
	}
	select {
	case <-resp:
		return nil
	case <-s.done:
		select {
		case <-resp:
			return nil
		default:
			return ErrClosed
		}
	}
}

// Snapshot freezes the session's observed prefix and runs an offline
// core.Detect query on it. The request is serialized with ingest through
// the session queue, so the verdict refers to a consistent prefix: every
// event enqueued before it is applied, none after.
func (s *Session) Snapshot(formula string, id int) (ServerFrame, error) {
	resp := make(chan ServerFrame, 1)
	in := inFrame{
		f:    ClientFrame{Type: FrameSnapshot, Formula: formula, ID: id},
		enq:  time.Now(),
		resp: resp,
	}
	if err := s.enqueue(in); err != nil {
		return ServerFrame{}, err
	}
	// The loop always answers queued requests, even while draining on
	// Close, so waiting on done (not stop) cannot lose the response.
	select {
	case fr := <-resp:
		if fr.Type == FrameError {
			return fr, errors.New(fr.Error)
		}
		return fr, nil
	case <-s.done:
		select {
		case fr := <-resp:
			if fr.Type == FrameError {
				return fr, errors.New(fr.Error)
			}
			return fr, nil
		default:
			return ServerFrame{}, ErrClosed
		}
	}
}

// run is the monitor loop: the only goroutine that touches mon and the
// watch states. It exits when Close fires, after draining every frame
// that ingest managed to enqueue — the graceful-shutdown "drain" step.
func (s *Session) run() {
	defer s.srv.wg.Done()
	for {
		select {
		case f := <-s.queue:
			s.handle(f)
		case <-s.stop:
			for {
				select {
				case f := <-s.queue:
					s.handle(f)
				default:
					s.finish()
					return
				}
			}
		}
	}
}

// finish emits the goodbye frame, publishes it, and releases the session.
func (s *Session) finish() {
	s.ensureWatches() // a session with no events still settles its watches
	s.srv.met.retained.Add(-s.retained)
	s.retained = 0
	gb := ServerFrame{
		Type:    FrameGoodbye,
		Session: s.id,
		Events:  int(s.events.Load()),
		Dropped: int(s.dropped.Load()),
	}
	s.mu.Lock()
	if s.reason != "" && s.reason != "bye" {
		gb.Error = s.reason
	}
	s.goodbye = &gb
	att := s.att
	var record []ServerFrame
	if s.resumable {
		record = append([]ServerFrame(nil), s.frames...)
	}
	s.mu.Unlock()
	if s.resumable && !s.superseded.Load() {
		// Linger in the morgue: a client whose connection died between
		// bye and goodbye resumes against this terminal state and still
		// collects every recorded frame exactly once. A superseded session
		// skips the morgue — its record describes a fenced incarnation and
		// must not shadow the tombstone redirect to the new owner.
		s.srv.retire(s.id, s.Welcome(), record, gb, s.enqSeq.Load())
	}
	// Leave the session table before the goodbye can reach the client: a
	// client that has its goodbye must find the session closed.
	s.srv.remove(s.id)
	if att != nil {
		select {
		case att.ch <- gb:
		default: // writer backlogged; accounting still available via Goodbye
		}
	}
	s.span.Set("events", int(s.events.Load())).Set("dropped", int(s.dropped.Load()))
	if gb.Error != "" {
		s.span.Set("error", gb.Error)
	}
	s.span.End()
	close(s.done)
}

func (s *Session) handle(f inFrame) {
	s.lastActive.Store(time.Now().UnixNano())
	// Once the loop holds the frame the enqueue stage is over; ending it
	// here, not in the transport after its channel send returns, keeps
	// the stages' end order the pipeline order.
	f.enqSpan.End()
	// The apply span covers the monitor step for this frame; verdict
	// spans latched by it parent under the frame span via curSpan.
	applyStart := time.Now()
	as := f.span.StartChild("apply")
	as.Set("service", "monitor")
	s.curSpan = f.span
	defer func() {
		s.curSpan = nil
		if f.f.Type == FrameInit || f.f.Type == FrameEvent || f.f.Type == FrameBatch || f.f.Type == FrameSnapshot {
			s.srv.met.stage(StageApply, time.Since(applyStart))
		}
		as.Set("event", s.seen)
		as.End()
		if f.span != nil {
			f.span.End()
		}
	}()
	switch f.f.Type {
	case FrameInit, FrameEvent:
		var applied int64
		if s.applyRow(f, singleRow(f.f)) {
			applied = 1
			s.observeIngest(f)
		}
		s.noteSeq(f.f, applied)
	case FrameBatch:
		s.noteSeq(f.f, s.handleBatch(f))
		f.f.Batch.Recycle() // no-op unless the batch came from the binary decode pool
	case FrameSnapshot:
		s.handleSnapshot(f)
	case frameFlush:
		if f.resp == nil { // arrived over the wire, where flush is not a frame
			s.reject(f, fmt.Sprintf("unknown frame type %q", f.f.Type))
			return
		}
		f.resp <- ServerFrame{Type: FrameAck}
	default:
		s.reject(f, fmt.Sprintf("unknown frame type %q", f.f.Type))
	}
}

// noteSeq finishes the monitor loop's side of a sequenced frame: the
// applied high-water mark advances (a semantically rejected frame still
// consumes its seq — redelivering it must not re-error), the frame is
// journaled, and every AckEvery applied frames an ack is pushed so the
// client can release its in-flight copies. The transport guarantees
// in-order, gap-free, duplicate-free delivery into the queue, so the
// loop sees each seq exactly once in order; the guard is defensive.
// applied is the number of events the frame applied to the monitor — 0
// or 1 for single frames, up to the batch length for a batch — keeping
// the journaled == events reconciliation exact under batching.
func (s *Session) noteSeq(f ClientFrame, applied int64) {
	if !s.resumable || f.Seq == 0 {
		return
	}
	if f.Seq <= s.ackSeq.Load() {
		s.dupes.Add(1)
		s.srv.met.duplicates.Inc()
		return
	}
	s.ackSeq.Store(f.Seq)
	entry := journalEntry{Seq: f.Seq, Type: f.Type, Proc: f.Proc}
	if len(s.journal) < s.srv.cfg.RetentionWindow {
		s.journal = append(s.journal, entry)
	} else {
		s.journal[s.jnext] = entry
		s.jnext = (s.jnext + 1) % len(s.journal)
	}
	if applied > 0 {
		s.journaled.Add(applied)
		s.srv.met.journaled.Add(applied)
	}
	if f.Seq%int64(s.srv.cfg.AckEvery) == 0 {
		ack := f.Seq
		if h := s.srv.cfg.Cluster; h != nil && h.AckGate != nil {
			// An ack releases the client's in-flight copy, so in cluster
			// mode it must not outrun replication durability: the gate
			// returns the highest seq safe to acknowledge right now. The
			// withheld tail is re-offered by Session.Ack when the gate
			// advances.
			ack = h.AckGate(s.id, f.Seq)
		}
		if ack > 0 {
			s.emit(ServerFrame{Type: FrameAck, Session: s.id, Seq: ack, Event: s.seen}, false)
		}
	}
}

// Ack pushes an unrecorded ack frame for seq, clamped to the applied
// high-water mark. Cluster replication calls it when the durability gate
// advances past acks that noteSeq withheld; safe from any goroutine.
func (s *Session) Ack(seq int64) {
	if applied := s.ackSeq.Load(); seq > applied {
		seq = applied
	}
	if seq <= 0 {
		return
	}
	s.emit(ServerFrame{Type: FrameAck, Session: s.id, Seq: seq}, false)
}

// reject reports a non-fatal protocol error back to the client. The
// session keeps running: semantic errors are per-frame, and a lossy
// (drop-policy) session routinely produces them.
func (s *Session) reject(f inFrame, msg string) {
	s.srv.met.protoErrors.Inc()
	fr := ServerFrame{Type: FrameError, Session: s.id, ID: f.f.ID, Event: s.seen, Error: msg}
	if f.resp != nil {
		f.resp <- fr
		return
	}
	s.emit(fr, true)
}

// ensureWatches registers the watches on the monitor. Deferred until the
// first event (or snapshot/close) so init frames streamed after hello are
// visible to the watches' initial-state evaluation; verdicts determined
// by initial values alone latch at event 0.
func (s *Session) ensureWatches() {
	if s.registered {
		return
	}
	s.registered = true
	s.pending = make([]int, len(s.watches))
	for i, w := range s.watches {
		s.pending[i] = i
		switch w.op {
		case "EF":
			w.ef = s.mon.WatchEF(w.locals...)
		case "AG":
			w.ag = s.mon.WatchAG(w.locals...)
		case "STABLE":
			locals := w.locals
			w.st = s.mon.WatchStable(w.pred, func(m *online.Monitor) bool {
				if m.InFlight() != 0 {
					return false
				}
				for _, l := range locals {
					if !l.HoldsNow(m) {
						return false
					}
				}
				return true
			})
		}
	}
	s.checkWatches()
}

// row is one init or event as the apply path consumes it: a batch row,
// or a single init/event frame lowered by singleRow.
type row struct {
	idx  int  // index in the batch frame; -1 for a single frame
	proc int  // 1-based wire process id
	kind byte // pir.EvInit, EvInternal, EvSend, EvReceive, or evUnknown
	msg  int
	name string         // init: the variable
	val  int            // init: its initial value
	sets map[string]int // event: the assignments (the monitor copies them)
}

// evUnknown marks a single event frame whose kind string is not one the
// protocol defines; applyRow rejects it per frame. Batch kinds are
// validated before apply and never take this value.
const evUnknown byte = 0xff

// singleRow lowers a single init or event frame into a row.
func singleRow(f ClientFrame) row {
	r := row{idx: -1, proc: f.Proc, kind: pir.EvInit, msg: f.Msg, name: f.Var, val: f.Value, sets: f.Sets}
	if f.Type == FrameEvent {
		switch f.Kind {
		case "", "internal":
			r.kind = pir.EvInternal
		case "send":
			r.kind = pir.EvSend
		case "receive":
			r.kind = pir.EvReceive
		default:
			r.kind = evUnknown
		}
	}
	return r
}

// applyRow applies one init or event to the monitor — the single apply
// path behind both single frames and batches. A semantic error rejects
// the row alone (the reject texts name the batch index for batch rows)
// and the session continues. Every applied event checks the watches, so
// verdict determining prefixes are per event whatever the framing.
// Reports whether an event was applied; inits and rejected rows apply
// none.
func (s *Session) applyRow(f inFrame, r row) bool {
	single := r.idx < 0
	if single && r.kind != pir.EvInit {
		// A single event frame registers the watches before its process
		// is checked, as it always has; a batch row checks first.
		s.ensureWatches()
	}
	proc := r.proc - 1
	if proc < 0 || proc >= s.n {
		switch {
		case !single:
			s.reject(f, fmt.Sprintf("batched event %d for process %d outside [1,%d]", r.idx, r.proc, s.n))
		case r.kind == pir.EvInit:
			s.reject(f, fmt.Sprintf("init for process %d outside [1,%d]", r.proc, s.n))
		default:
			s.reject(f, fmt.Sprintf("event for process %d outside [1,%d]", r.proc, s.n))
		}
		return false
	}
	if r.kind == pir.EvInit {
		switch {
		case r.name == "" && single:
			s.reject(f, "init frame without var")
		case r.name == "":
			s.reject(f, fmt.Sprintf("batched init %d without var", r.idx))
		case s.mon.EventsOn(proc) > 0 && single:
			s.reject(f, fmt.Sprintf("init for process %d after its events", r.proc))
		case s.mon.EventsOn(proc) > 0:
			s.reject(f, fmt.Sprintf("batched init for process %d after its events", r.proc))
		case s.registered:
			// Watches already evaluated initial states; a later init would
			// make verdicts depend on ingest interleaving.
			s.reject(f, "init after watches started evaluating (send inits first)")
		default:
			s.mon.SetInitial(proc, r.name, r.val)
		}
		return false
	}
	s.ensureWatches()
	switch r.kind {
	case pir.EvInternal:
		s.mon.Internal(proc, r.sets)
	case pir.EvSend:
		if _, dup := s.msgIDs[r.msg]; dup {
			s.reject(f, fmt.Sprintf("message %d sent twice", r.msg))
			return false
		}
		s.msgIDs[r.msg] = s.mon.Send(proc, r.sets)
	case pir.EvReceive:
		id, ok := s.msgIDs[r.msg]
		if !ok {
			s.reject(f, fmt.Sprintf("receive of unknown message %d (dropped or unsent)", r.msg))
			return false
		}
		if err := s.mon.Receive(proc, id, r.sets); err != nil {
			s.reject(f, err.Error())
			return false
		}
	default:
		s.reject(f, fmt.Sprintf("unknown event kind %q", f.f.Kind))
		return false
	}
	s.seen++
	s.events.Add(1)
	s.srv.met.events.Inc()
	if d := s.srv.cfg.IngestDelay; d > 0 {
		time.Sleep(d)
	}
	s.checkWatches()
	return true
}

// observeIngest records one frame's enqueue-to-applied latency: once per
// frame, whatever the number of events it carried.
func (s *Session) observeIngest(f inFrame) {
	lat := time.Since(f.enq)
	s.latNanos.Add(lat.Nanoseconds())
	s.srv.met.ingestDur.Observe(lat.Seconds())
}

// handleBatch applies a batch frame: each batched init/event in order
// through applyRow, with exactly the semantics the equivalent single
// frames would have had — per-event semantic errors are rejected
// individually and the rest of the batch continues. Returns the number
// of events applied.
func (s *Session) handleBatch(f inFrame) int64 {
	b := f.f.Batch
	if b == nil {
		s.reject(f, "batch frame without batch columns")
		return 0
	}
	// Binary decode only constructs valid batches; JSON-decoded ones
	// (NDJSON clients, and their replay from a cluster frame log) are
	// untrusted shapes.
	if err := b.Validate(); err != nil {
		s.reject(f, err.Error())
		return 0
	}
	var applied int64
	for i, n := 0, b.Len(); i < n; i++ {
		lo, hi := b.SetOff[i], b.SetOff[i+1]
		r := row{idx: i, proc: int(b.Procs[i]), kind: b.Kinds[i], msg: b.Msg(i)}
		if r.kind == pir.EvInit {
			r.name, r.val = b.Sets[lo].Name, b.Sets[lo].Val
		} else {
			r.sets = s.scratchSets(b.Sets[lo:hi])
		}
		if s.applyRow(f, r) {
			applied++
		}
	}
	s.srv.met.batches.Inc()
	s.observeIngest(f)
	return applied
}

// scratchSets materializes one batched event's assignments as a map for
// the monitor, reusing one allocation for the session's lifetime — the
// monitor copies what it keeps.
func (s *Session) scratchSets(sets []pir.VarSet) map[string]int {
	if len(sets) == 0 {
		return nil
	}
	if s.scratch == nil {
		s.scratch = make(map[string]int, 8)
	} else {
		clear(s.scratch)
	}
	for _, vs := range sets {
		s.scratch[vs.Name] = vs.Val
	}
	return s.scratch
}

func (s *Session) handleSnapshot(f inFrame) {
	if s.mon.Bounded() {
		s.reject(f, "snapshot unavailable on a bounded session (event prefix not retained)")
		return
	}
	s.ensureWatches()
	fl, err := ctl.Parse(f.f.Formula)
	if err != nil {
		s.reject(f, err.Error())
		return
	}
	res, err := core.DetectParallel(s.mon.Snapshot(), fl, s.srv.cfg.Workers)
	if err != nil {
		s.reject(f, err.Error())
		return
	}
	s.srv.met.snapshots.Inc()
	holds := res.Holds
	fr := ServerFrame{
		Type:      FrameSnapshot,
		Session:   s.id,
		ID:        f.f.ID,
		Holds:     &holds,
		Algorithm: res.Algorithm,
		Event:     s.seen,
		Events:    s.seen,
	}
	if f.resp != nil {
		f.resp <- fr
		return
	}
	s.emit(fr, false)
}

// publishRetained folds the monitor's current retained-state figure into
// the hb_server_session_retained_events gauge as a delta against the last
// published value, so the gauge sums correctly across sessions. Bounded
// sessions hold it at the slice-cursor size; unbounded sessions grow it
// with the prefix.
func (s *Session) publishRetained() {
	if r := int64(s.mon.Retained()); r != s.retained {
		s.srv.met.retained.Add(r - s.retained)
		s.retained = r
	}
}

// checkWatches emits a verdict frame for every watch that latched since
// the last check. Called after each applied event, so Event on the frame
// is the exact determining prefix: the verdict did not hold after
// Event-1 events and holds after Event. Only the pending watches are
// visited, in index order, so watches latching on one event emit their
// frames in watch order; a latched watch leaves the pending list.
func (s *Session) checkWatches() {
	s.publishRetained()
	live := s.pending[:0]
	for _, i := range s.pending {
		w := s.watches[i]
		if !(w.ef != nil && w.ef.Fired() || w.ag != nil && w.ag.Violated() || w.st != nil && w.st.Fired()) {
			live = append(live, i)
			continue
		}
		fr := ServerFrame{Type: FrameVerdict, Session: s.id, Watch: i, Op: w.op, Pred: w.pred, Event: s.seen}
		switch {
		case w.ef != nil:
			s.srv.met.efFired.Inc()
			fr.Cut = w.ef.Cut()
		case w.ag != nil:
			s.srv.met.agViolated.Inc()
			fr.Cut, fr.Conjunct = w.ag.Counterexample()
		default:
			s.srv.met.stableFired.Inc()
			fr.Event = w.st.FiredAt()
		}
		verdictStart := time.Now()
		vs := s.curSpan.StartChild("verdict")
		vs.Set("service", "monitor").Set("watch", i).Set("op", w.op).Set("event", s.seen)
		s.emit(fr, true)
		vs.End()
		s.srv.met.stage(StageVerdict, time.Since(verdictStart))
	}
	s.pending = live
}

// emit records a latched frame (when record is set) and pushes it to the
// attached transport. Recording happens before the push and resume
// replays the record, so a frame is never lost to a dying connection —
// at worst it is delivered twice, and the client dedupes on Idx. Safe
// from any goroutine; never blocks past Close or a transport detach.
func (s *Session) emit(fr ServerFrame, record bool) {
	s.mu.Lock()
	if record {
		fr.Idx = len(s.frames) + 1
		s.frames = append(s.frames, fr)
	}
	att := s.att
	s.mu.Unlock()
	if att == nil {
		return
	}
	// Prefer the buffered send: during the post-Close drain stop is
	// already closed, but the writer is still draining the subscriber, so
	// verdicts for drained events must not be shed while there is room.
	select {
	case att.ch <- fr:
	default:
		select {
		case att.ch <- fr:
		case <-att.done:
			// Transport died with a backlogged channel; recorded frames
			// reach the client via resume replay or Frames / Goodbye.
		case <-s.stop:
			// Closing with a backlogged subscriber; the frame stays
			// available via Frames / Goodbye.
		}
	}
}
