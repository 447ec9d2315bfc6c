package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/computation"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

// streamWorkload describes one serving-path workload. Each run is
// streamRounds rounds; a round starts the system and opens its sessions
// (set-up), streams a fixed prefix open loop at the offered rate, then
// the rest of the stream closed loop to saturation, measures the
// retained heap with the sessions still open, closes them, and checks
// every answer against offline detection.
type streamWorkload struct {
	procs     int
	sessions  int     // concurrent sessions, one client connection and one writer each
	rate      float64 // offered events/s per session in the open-loop phase
	closedEvs int     // events per session in the closed-loop phase
	nEF, nAG  int     // planned watches per session
	binary    bool    // binary batched ingest (else NDJSON, one frame per event)
	cluster   bool    // 3-node cluster, replicas=2 (else one standalone server)
	bounded   bool    // bounded sessions (O(slice) retained state)
	snapshots bool    // a second goroutine issues closed-loop snapshot queries
}

const (
	streamRounds = 5
	// closedWindows splits each round's closed-loop phase into windows
	// measured separately, so a run's throughput is a median over many.
	closedWindows = 4
	// openShare is the share of the run's measuring time spent in the
	// open-loop phases; the closed-loop phases are sized to take about
	// the rest at the throughput this machine sustains.
	openShare = 0.6
	// lagLimitMs is the open-loop validity limit: when the generator's
	// tail lag behind its schedule exceeds it, the offered rate was not
	// actually offered and the run is reported invalid.
	lagLimitMs = 25
	// ackEvery is the server's ack cadence, hbserver's default: an ack
	// covers every frame up to a multiple of 32. Each phase's stream is
	// framed so its final seq is such a multiple, so the ack covering it
	// is the phase's barrier.
	ackEvery = 32
	// tick is the open-loop schedule's granularity: events are due in
	// bursts of rate·tick, one frame per burst on the binary encoding.
	tick = time.Millisecond
	// batchSize is the client's binary batch cap (its default).
	batchSize   = 64
	clusterSize = 3
	// thinkTime separates a snapshot answer from the next query. It is
	// longer than a query takes on the largest prefix a round reaches,
	// so the monitor loop is stalled for a minority of the time — the
	// stall shows in the verdict tail, and the median stays the ingest
	// path's own latency instead of half a query's duration.
	thinkTime = 60 * time.Millisecond
)

// snapFormulas are the snapshot queries, issued in turn. On the whole
// prefix they force full sweeps: an AG that holds (A2 over the
// meet-irreducibles), an EG that holds (A1 from ∅ to the frontier) and
// an EF that is false.
var snapFormulas = []string{
	"AG(conj(x@P1 <= 3, x@P2 <= 3, x@P3 <= 3))",
	"EG(conj(x@P1 <= 3, x@P2 <= 3, x@P4 <= 3))",
	"EF(conj(x@P1 == 9, x@P2 == 9))",
}

// workloads are the stream workloads. The open-loop rates are a few
// percent of what each path sustains closed loop on a 2-vCPU machine
// (about 90k events/s NDJSON standalone, 400k events/s binary on the
// cluster), so latency is measured below saturation. 195 planned
// watches per session give each session's latency group 195 samples,
// which the percentile rule reports at p90.
var workloads = map[string]*streamWorkload{
	"stream-ndjson-snapshot": {procs: 4, sessions: 1, rate: 8000, closedEvs: 32000,
		nEF: 145, nAG: 50, snapshots: true},
	"stream-binary-rf2": {procs: 4, sessions: 2, rate: 5000, closedEvs: 81920,
		nEF: 145, nAG: 50, binary: true, cluster: true, bounded: true},
}

// system is one started server or cluster.
type system struct {
	addrs  []string
	regs   []*obs.Registry // server registries, one per node
	cregs  []*obs.Registry // cluster registries, one per node
	ring   *cluster.Ring
	stop   func() error
	served sync.WaitGroup
}

func startSystem(w *streamWorkload, tracer *obs.Tracer) (*system, error) {
	n := 1
	if w.cluster {
		n = clusterSize
	}
	sys := &system{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		sys.addrs = append(sys.addrs, ln.Addr().String())
		sys.regs = append(sys.regs, obs.NewRegistry())
		sys.cregs = append(sys.cregs, obs.NewRegistry())
	}
	srvCfg := func(i int) server.Config {
		return server.Config{Registry: sys.regs[i], AckEvery: ackEvery, Tracer: tracer}
	}
	serve := func(f func(net.Listener) error, ln net.Listener) {
		sys.served.Add(1)
		go func() {
			defer sys.served.Done()
			f(ln) //nolint:errcheck // returns when Shutdown closes the listener
		}()
	}
	if !w.cluster {
		srv := server.New(srvCfg(0))
		serve(srv.Serve, lns[0])
		sys.stop = func() error { return shutdown(srv.Shutdown) }
		return sys, nil
	}
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		node, err := cluster.New(srvCfg(i), cluster.NodeConfig{
			Self: sys.addrs[i], Peers: sys.addrs, Replicas: 2, Registry: sys.cregs[i]})
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		nodes[i] = node
		serve(node.Serve, lns[i])
	}
	sys.ring = nodes[0].Ring()
	sys.stop = func() error {
		var first error
		for _, node := range nodes {
			if err := shutdown(node.Shutdown); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return sys, nil
}

func shutdown(f func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return f(ctx)
}

// keysFor picks one session key per session, each owned by a different
// node, so the sessions spread over the cluster the same way every run.
func keysFor(ring *cluster.Ring, prefix string, sessions int) []string {
	var keys []string
	owners := map[string]bool{}
	for j := 0; len(keys) < sessions; j++ {
		k := fmt.Sprintf("%s-%d", prefix, j)
		if o := ring.Owner(k); !owners[o] || len(owners) == len(ring.Nodes()) {
			owners[o] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// live is one open session with its stream and observations.
type live struct {
	st      stream
	sess    *client.Session
	rc      *receipts
	due     []time.Time // scheduled send time per open-loop event
	frames  []frameRec  // frames of the open-loop phase
	lag     []float64   // ms behind schedule, per open-loop event
	seq     int64       // frames sent so far
	pending int         // events in the client's unflushed batch
	flushS  float64     // time inside Flush
	snaps   []snapAnswer
	snapMs  []float64
}

// frameRec maps a sequenced frame to the index of its last event.
type frameRec struct {
	seq  int64
	last int
}

// send streams event i and mirrors the client's framing: NDJSON sends
// one frame per event; binary batching closes a frame at BatchSize. The
// update map is built per call, as a client of the API does.
func (l *live) send(i int, w *streamWorkload, rec *recorder, parent int) {
	e := &l.st.evs[i]
	sp := rec.begin("client.send", parent)
	switch e.kind {
	case computation.Internal:
		l.sess.Internal(e.proc, e.setsMap())
	case computation.Send:
		l.sess.SendMsg(e.proc, e.msg, e.setsMap())
	case computation.Receive:
		l.sess.Receive(e.proc, e.msg, e.setsMap())
	}
	rec.end(sp)
	if !w.binary {
		l.seq++
		l.frames = append(l.frames, frameRec{l.seq, i})
		return
	}
	if l.pending++; l.pending == batchSize {
		l.seq++
		l.pending = 0
		l.frames = append(l.frames, frameRec{l.seq, i})
	}
}

// flush sends the pending binary batch, if any, as one frame.
func (l *live) flush(last int, w *streamWorkload, rec *recorder, parent int) {
	if !w.binary {
		return
	}
	sp := rec.begin("client.Flush", parent)
	t0 := time.Now()
	err := l.sess.Flush()
	l.flushS += time.Since(t0).Seconds()
	rec.end(sp)
	if err == nil && l.pending > 0 {
		l.seq++
		l.pending = 0
		l.frames = append(l.frames, frameRec{l.seq, last})
	}
}

// openLoop streams events [0, n) on a fixed schedule from t0 at the
// offered rate, in bursts of rate·tick events due every tick. It sleeps
// only while ahead of schedule, never slows when the server slows, and
// after each wake-up sends everything due and flushes, so no event
// waits for a batch to fill.
func (l *live) openLoop(n int, t0 time.Time, w *streamWorkload, rec *recorder, parent int) {
	perTick := int(w.rate * tick.Seconds())
	for i := 0; i < n; i++ {
		l.due[i] = t0.Add(time.Duration(i/perTick) * tick)
	}
	for i := 0; i < n; {
		sp := rec.begin("loadgen.sleep", parent)
		sleepUntil(l.due[i])
		rec.end(sp)
		now := time.Now()
		j := i
		for ; j < n && !l.due[j].After(now); j++ {
			l.lag = append(l.lag, float64(time.Since(l.due[j]))/1e6)
			l.send(j, w, rec, parent)
		}
		l.flush(j-1, w, rec, parent)
		i = j
	}
}

// closedLoop streams events [from, to) as fast as the client accepts
// them, then flushes. Binary batches are full (batchSize events) except
// for up to pad one-event frames first, chosen so the window's final seq
// is a multiple of ackEvery.
func (l *live) closedLoop(from, to int, w *streamWorkload, rec *recorder, parent int) {
	i := from
	if w.binary {
		for pad := alignPad(l.seq, to-from); pad > 0; pad-- {
			l.send(i, w, rec, parent)
			l.flush(i, w, rec, parent)
			i++
		}
	}
	for ; i < to; i++ {
		l.send(i, w, rec, parent)
	}
	l.flush(to-1, w, rec, parent)
}

// alignPad returns how many one-event frames to send before full
// batches so that n events sent after seq end on a multiple of
// ackEvery.
func alignPad(seq int64, n int) int {
	for pad := 0; pad < n; pad++ {
		frames := int64(pad + (n-pad+batchSize-1)/batchSize)
		if (seq+frames)%ackEvery == 0 {
			return pad
		}
	}
	panic("perfbench: no framing aligns the closed loop to the ack cadence") // n ≥ ackEvery always has one
}

// snapshotLoop issues snapshot queries one at a time, each thinkTime
// after the previous answer, until stop closes.
func (l *live) snapshotLoop(stop <-chan struct{}, rec *recorder, res *result, mu *sync.Mutex) {
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		case <-time.After(thinkTime):
		}
		formula := snapFormulas[k%len(snapFormulas)]
		sp := rec.begin("client.Snapshot", -1)
		t0 := time.Now()
		fr, err := l.sess.Snapshot(formula)
		d := time.Since(t0)
		rec.end(sp)
		mu.Lock()
		res.attempted++
		switch {
		case err != nil:
			res.fail("snapshot %s: %v", formula, err)
		case fr.Type != server.FrameSnapshot || fr.Holds == nil:
			res.fail("snapshot %s answered %s: %s", formula, fr.Type, fr.Error)
		default:
			l.snapMs = append(l.snapMs, float64(d)/1e6)
			l.snaps = append(l.snaps, snapAnswer{formula, fr.Event, *fr.Holds, fr.Algorithm})
		}
		mu.Unlock()
	}
}

// streamTotals accumulates the samples of every round of a run.
type streamTotals struct {
	setup, eps, heap            []float64
	verdictMs, ackMs, lagMs     [][]float64 // per session of every round
	snapMs                      []float64   // the whole run: a round answers too few queries
	flushS, lagMax, allocsPerEv []float64
	stage, stageFrame           map[string][]float64 // ns per event, ns per frame
	counters                    map[string]float64   // summed over rounds
	events                      float64
}

// runStream runs one stream workload; tracer, when non-nil, receives
// the server's pipeline spans.
func runStream(w *streamWorkload, rng *rand.Rand, seconds float64, tracer *obs.Tracer, rec *recorder, res *result) {
	tot := &streamTotals{stage: map[string][]float64{}, stageFrame: map[string][]float64{}, counters: map[string]float64{}}
	openSec := seconds * openShare / streamRounds
	openN := int(openSec*w.rate) / ackEvery * ackEvery
	gc0 := gcCount()
	for r := 0; r < streamRounds; r++ {
		streams := make([]stream, w.sessions)
		for i := range streams {
			streams[i] = genStream(rng, w.procs, openN+w.closedEvs, w.nEF, w.nAG, 100, openN-100)
		}
		if !runRound(w, streams, openN, r, rng.Int63(), tracer, rec, res, tot) {
			return
		}
	}
	res.e2e["setup_s"] = median(tot.setup)
	res.e2e["events_per_s"] = median(tot.eps)
	res.e2e["retained_heap_mb"] = median(tot.heap)
	res.verdicts = tot.verdictMs
	if l, err := summarize(tot.ackMs); err == nil {
		res.layer["stream.ack_p50_ms"], res.layer["stream.ack_tail_ms"] = l.p50, l.tail
		res.note("ack latency %v", l)
		res.layer["cluster.unattributed_ms"] = l.p50 - stageSumMs(tot)
	}
	if l, err := summarize([][]float64{tot.snapMs}); err == nil {
		res.layer["snapshot.p50_ms"], res.layer["snapshot.tail_ms"] = l.p50, l.tail
		res.note("snapshot latency %v", l)
	}
	if l, err := summarize(tot.lagMs); err == nil {
		// Like every latency here, the lag tail is the median over the
		// session groups: one group hit by a host hiccup does not void a
		// run whose schedule otherwise held.
		res.layer["loadgen.lag_tail_ms"] = l.tail
		res.note("open-loop generator lag %v (limit %d ms at the tail)", l, lagLimitMs)
		if l.tail > lagLimitMs {
			res.fail("invalid run: the open-loop generator ran %.3g ms late at p%g (limit %d ms)", l.tail, l.pct, lagLimitMs)
		}
	}
	res.layer["loadgen.sent"] = tot.events
	res.layer["client.send_ns_per_event"] = clientSendNS(rec)
	res.layer["client.flush_s"] = median(tot.flushS)
	for st, xs := range tot.stage {
		res.layer["server."+st+".ns_per_event"] = median(xs)
	}
	for k, v := range tot.counters {
		res.layer[k] = v
	}
	res.layer["cluster.repl_lag_frames_max"] = maxOf(tot.lagMax)
	res.layer["runtime.allocs_per_event"] = median(tot.allocsPerEv)
	res.layer["runtime.gc_cycles"] = float64(gcCount() - gc0)
}

// stageSumMs is the server's per-frame stage time (decode, enqueue and
// apply means, summed over rounds' medians), in ms: what the server's
// own histograms can account for of one frame's ack latency.
func stageSumMs(tot *streamTotals) float64 {
	var sum float64
	for _, st := range []string{"decode", "enqueue", "apply"} {
		if xs := tot.stageFrame[st]; len(xs) > 0 {
			sum += median(xs) / 1e6
		}
	}
	return sum
}

func runRound(w *streamWorkload, streams []stream, openN, round int, keySeed int64, tracer *obs.Tracer,
	rec *recorder, res *result, tot *streamTotals) bool {
	ls := make([]*live, len(streams))
	for i, st := range streams {
		ls[i] = &live{st: st, rc: newReceipts(), due: make([]time.Time, openN),
			frames: make([]frameRec, 0, len(st.evs)), lag: make([]float64, 0, openN)}
	}
	heap0 := liveHeap()

	// Set-up: start the system and open every session.
	root := rec.begin("run.setup", -1)
	t0 := time.Now()
	sys, err := startSystem(w, tracer)
	if err != nil {
		res.fail("start: %v", err)
		return false
	}
	var keys []string
	if w.cluster {
		keys = keysFor(sys.ring, fmt.Sprintf("k%x-%d", keySeed, round), len(ls))
	}
	for i, l := range ls {
		cfg := client.Config{Processes: w.procs, Watches: l.st.watches, Reconnect: true,
			Bounded: w.bounded, Dial: l.rc.dial, BatchSize: batchSize}
		if w.binary {
			cfg.Encoding = server.EncodingBinary
		}
		addr := sys.addrs[0]
		if w.cluster {
			addr, cfg.Key, cfg.Peers = "", keys[i], sys.addrs
		}
		sp := rec.begin("client.Dial", root)
		l.sess, err = client.Dial(addr, cfg)
		rec.end(sp)
		if err != nil {
			res.fail("dial: %v", err)
			sys.stop()
			return false
		}
	}
	tot.setup = append(tot.setup, time.Since(t0).Seconds())
	rec.end(root)

	// Replication lag is a gauge; sample it for its peak.
	var lagMax int64
	sampleStop := make(chan struct{})
	var sampler sync.WaitGroup
	if w.cluster {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-sampleStop:
					return
				case <-tick.C:
					var v int64
					for _, reg := range sys.cregs {
						v += reg.Gauge("hb_cluster_repl_lag_frames", "").Value()
					}
					lagMax = max(lagMax, v)
				}
			}
		}()
	}

	// Open loop, with snapshot queries beside the writes.
	var wg sync.WaitGroup
	var mu sync.Mutex
	stopSnaps := make(chan struct{})
	var snapWG sync.WaitGroup
	if w.snapshots {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			ls[0].snapshotLoop(stopSnaps, rec, res, &mu)
		}()
	}
	start := time.Now().Add(time.Millisecond)
	for _, l := range ls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := rec.begin("run.open", -1)
			l.openLoop(openN, start, w, rec, sp)
			rec.end(sp)
		}()
	}
	wg.Wait()
	close(stopSnaps)
	snapWG.Wait()
	deadline := time.Now().Add(60 * time.Second)
	for _, l := range ls {
		if !l.rc.waitAck(l.seq-l.seq%ackEvery, deadline) {
			res.fail("open loop: no ack for seq %d", l.seq-l.seq%ackEvery)
			sys.stop()
			return false
		}
	}

	// Closed loop to saturation, in closedWindows windows; each window
	// ends on the ack covering every session's final seq.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	per := w.closedEvs / closedWindows
	for win := 0; win < closedWindows; win++ {
		from := openN + win*per
		winStart := time.Now()
		for _, l := range ls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp := rec.begin("run.closed", -1)
				l.closedLoop(from, from+per, w, rec, sp)
				ws := rec.begin("wait.ack", sp)
				l.rc.waitAck(l.seq, deadline)
				rec.end(ws)
				rec.end(sp)
			}()
		}
		wg.Wait()
		var winEnd time.Time
		for _, l := range ls {
			at, ok := l.rc.ackTime(l.seq)
			if !ok {
				res.fail("closed loop: no ack for final seq %d", l.seq)
				sys.stop()
				return false
			}
			if at.After(winEnd) {
				winEnd = at
			}
		}
		tot.eps = append(tot.eps, float64(per*len(ls))/winEnd.Sub(winStart).Seconds())
	}
	runtime.ReadMemStats(&m1)
	closedN := float64(w.closedEvs * len(ls))
	tot.allocsPerEv = append(tot.allocsPerEv, float64(m1.Mallocs-m0.Mallocs)/closedN)
	reading := readServer(sys.regs)
	tot.heap = append(tot.heap, (liveHeap()-heap0)/(1<<20))
	close(sampleStop)
	sampler.Wait()
	tot.lagMax = append(tot.lagMax, float64(lagMax))
	recordServer(reading, float64(len(ls)*len(ls[0].st.evs)), tot, sys)

	// Close: the goodbye must account every event sent.
	frames := make([][]server.ServerFrame, len(ls))
	for i, l := range ls {
		gb, err := l.sess.Close()
		res.attempted += len(l.st.evs)
		switch {
		case err != nil:
			res.fail("close: %v", err)
			res.failed += len(l.st.evs) - 1
		case gb == nil:
			res.fail("close: no goodbye")
			res.failed += len(l.st.evs) - 1
		case gb.Events != len(l.st.evs) || gb.Dropped != 0:
			res.fail("goodbye accounts %d events (%d dropped), %d sent", gb.Events, gb.Dropped, len(l.st.evs))
			res.failed += len(l.st.evs) - gb.Events - 1
		}
		frames[i] = l.sess.Latched()
	}
	if err := sys.stop(); err != nil {
		res.fail("shutdown: %v", err)
	}
	sys.served.Wait()

	// Latencies, from each event's due time, grouped per session: the
	// reported figures are medians over the run's session groups.
	for _, l := range ls {
		var verdictMs, ackMs []float64
		for _, f := range l.frames {
			if f.last >= openN {
				break
			}
			at, ok := l.rc.ackTime(f.seq)
			if !ok {
				res.fail("no ack covering seq %d", f.seq)
				continue
			}
			ackMs = append(ackMs, float64(at.Sub(l.due[f.last]))/1e6)
		}
		for _, v := range l.rc.verdicts {
			if v.event >= 1 && v.event <= openN {
				verdictMs = append(verdictMs, float64(v.at.Sub(l.due[v.event-1]))/1e6)
			}
		}
		tot.verdictMs = append(tot.verdictMs, verdictMs)
		tot.ackMs = append(tot.ackMs, ackMs)
		tot.lagMs = append(tot.lagMs, l.lag)
		tot.snapMs = append(tot.snapMs, l.snapMs...)
		tot.events += float64(len(l.st.evs))
		tot.flushS = append(tot.flushS, l.flushS)
	}

	// Oracle: every verdict and snapshot answer against offline Detect.
	for i, l := range ls {
		o, err := newPrefixOracle(l.st)
		if err != nil {
			res.fail("oracle build: %v", err)
			continue
		}
		res.attempted += len(l.st.watches)
		for _, err := range checkVerdicts(o, l.st, frames[i]) {
			res.fail("session %d: %v", i, err)
		}
		if n := countVerdicts(frames[i]); n != len(l.rc.verdicts) {
			res.fail("session %d: %d verdicts latched, %d seen on the wire", i, n, len(l.rc.verdicts))
		}
		for _, a := range l.snaps {
			if err := checkSnapshot(o, a); err != nil {
				res.fail("session %d: %v", i, err)
			}
		}
	}
	return true
}

func countVerdicts(frames []server.ServerFrame) int {
	n := 0
	for _, fr := range frames {
		if fr.Type == server.FrameVerdict {
			n++
		}
	}
	return n
}

// clientSendNS is the mean time inside one client event call, from the
// benchmark's client.send spans.
func clientSendNS(rec *recorder) float64 {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var sum, n int64
	for _, s := range rec.spans {
		if s.name == "client.send" && s.end >= s.start {
			sum += s.end - s.start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// serverReading is one read of the program's stage histograms, summed
// over the nodes.
type serverReading struct {
	stageSum   map[string]float64
	stageCount map[string]int64
}

var stageNames = []string{server.StageDecode, server.StageEnqueue, server.StageApply, server.StageVerdict}

func readServer(regs []*obs.Registry) serverReading {
	r := serverReading{stageSum: map[string]float64{}, stageCount: map[string]int64{}}
	for _, reg := range regs {
		for _, st := range stageNames {
			h := reg.Histogram(`hb_server_stage_seconds{stage="`+st+`"}`, "", nil)
			r.stageSum[st] += h.Sum()
			r.stageCount[st] += h.Count()
		}
	}
	return r
}

// recordServer folds one round's stage times (over the whole round, per
// event streamed and per frame the stage saw; snapshot queries count in
// apply) and the round's counters into the totals.
func recordServer(r serverReading, events float64, tot *streamTotals, sys *system) {
	for _, st := range stageNames {
		tot.stage[st] = append(tot.stage[st], r.stageSum[st]*1e9/events)
		if c := r.stageCount[st]; c > 0 {
			tot.stageFrame[st] = append(tot.stageFrame[st], r.stageSum[st]*1e9/float64(c))
		}
	}
	sum := func(regs []*obs.Registry, name string) float64 {
		var v float64
		for _, reg := range regs {
			v += float64(reg.Counter(name, "").Value())
		}
		return v
	}
	gauge := func(regs []*obs.Registry, name string) float64 {
		var v float64
		for _, reg := range regs {
			v += float64(reg.Gauge(name, "").Value())
		}
		return v
	}
	tot.counters["server.events"] += sum(sys.regs, "hb_server_events_total")
	tot.counters["server.batches"] += sum(sys.regs, "hb_server_batches_total")
	tot.counters["server.snapshots"] += sum(sys.regs, "hb_server_snapshots_total")
	tot.counters["server.protocol_errors"] += sum(sys.regs, "hb_server_protocol_errors_total")
	tot.counters["online.retained_events"] = max(tot.counters["online.retained_events"],
		gauge(sys.regs, "hb_server_session_retained_events"))
	tot.counters["cluster.frames_sent"] += sum(sys.cregs, "hb_cluster_repl_frames_sent_total")
	tot.counters["cluster.frames_recv"] += sum(sys.cregs, "hb_cluster_repl_frames_recv_total")
	tot.counters["cluster.acks_recv"] += sum(sys.cregs, "hb_cluster_repl_acks_recv_total")
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func gcCount() uint32 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC
}
