package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"repro/internal/computation"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sim"
)

// runIngest compares the two ingest encodings head to head on the same
// workload: NDJSON with one frame (and one write) per event, versus the
// binary encoding batching events into length-prefixed frames — one
// write per batch, decoded straight into the columnar batch
// representation with pooled buffers and interned variable names.
// Both encodings get one ack per ingestAck events, and the timed window
// ends on the ack covering the final frame, so the barrier costs the
// same on both and nothing proportional to |E|. Reported allocs/event
// is the whole loopback pipeline (client encode + server decode +
// apply), measured as the Mallocs delta across the streaming window.
// Each cell is the median of ingestRuns runs (encodings alternating,
// GC on), with the runs' spread.
func runIngest() {
	fmt.Printf("ingest path: NDJSON frame-per-event vs binary batched frames (batch=%d); median of %d runs, GC on\n", ingestAck, ingestRuns)
	fmt.Printf("%8s %9s %12s %14s %8s %12s %9s\n", "|E|", "encoding", "ingest", "events/s", "spread", "allocs/ev", "speedup")
	for _, events := range []int{1000, 5000, 20000} {
		comp := sim.Random(sim.DefaultRandomConfig(4, events), 21)
		inits, feed := ingestStream(comp)
		var nd, bn []ingestResult
		for i := 0; i < ingestRuns; i++ {
			nd = append(nd, measureIngest(comp, inits, feed, server.EncodingNDJSON))
			bn = append(bn, measureIngest(comp, inits, feed, server.EncodingBinary))
		}
		base, baseIQR := medianIngest(nd)
		bin, binIQR := medianIngest(bn)
		speedup := base.dt.Seconds() / bin.dt.Seconds()
		fmt.Printf("%8d %9s %12s %14.0f %7.0f%% %12.1f %9s\n",
			len(feed), "ndjson", base.dt.Round(time.Microsecond), base.rate, 100*baseIQR, base.allocsPerEv, "")
		fmt.Printf("%8d %9s %12s %14.0f %7.0f%% %12.1f %8.1fx\n",
			len(feed), "binary", bin.dt.Round(time.Microsecond), bin.rate, 100*binIQR, bin.allocsPerEv, speedup)
		emit("ingest", "encoding", map[string]any{
			"events": len(feed), "batch": ingestAck, "runs": ingestRuns,
			"ndjson_ns": base.dt.Nanoseconds(), "ndjson_events_per_sec": base.rate,
			"ndjson_spread": baseIQR, "ndjson_allocs_per_event": base.allocsPerEv,
			"binary_ns": bin.dt.Nanoseconds(), "binary_events_per_sec": bin.rate,
			"binary_spread": binIQR, "binary_allocs_per_event": bin.allocsPerEv,
			"speedup": speedup,
		})
	}
}

const (
	// ingestAck is both the binary batch size and the ack cadence in
	// events: the binary server acks every batch frame, the NDJSON
	// server every ingestAck event frames.
	ingestAck = 64
	// ingestRuns is the number of runs per encoding and size.
	ingestRuns = 5
)

type ingestResult struct {
	dt          time.Duration
	rate        float64
	allocsPerEv float64
}

// medianIngest returns the run with the median window and the runs'
// interquartile range as a share of that window.
func medianIngest(runs []ingestResult) (ingestResult, float64) {
	sort.Slice(runs, func(i, j int) bool { return runs[i].dt < runs[j].dt })
	n := len(runs)
	med := runs[n/2]
	return med, float64(runs[(3*n)/4].dt-runs[n/4].dt) / float64(med.dt)
}

// wireEvent is one pre-linearized step, so the measured window holds
// only the wire path — no linearization or event lookup inside it.
type wireEvent struct {
	proc int
	kind computation.Kind
	msg  int
	sets map[string]int
}

// flatten precomputes one linearization of comp as a flat replay list.
func flatten(comp *computation.Computation) []wireEvent {
	seq := comp.SomeLinearization()
	feed := make([]wireEvent, 0, comp.TotalEvents())
	for s := 1; s < len(seq); s++ {
		prev, cur := seq[s-1], seq[s]
		for p := range cur {
			if cur[p] <= prev[p] {
				continue
			}
			e := comp.Event(p, cur[p])
			feed = append(feed, wireEvent{proc: p, kind: e.Kind, msg: e.Msg, sets: e.Sets})
			break
		}
	}
	return feed
}

// ingestStream returns the init frames and the events one run streams.
// The event list is a prefix of one linearization — itself a valid
// computation — cut so that inits plus events fill whole ingestAck
// units, so the final frame of either encoding is an ack point.
func ingestStream(comp *computation.Computation) ([]wireInit, []wireEvent) {
	var inits []wireInit
	for p := 0; p < comp.N(); p++ {
		for _, name := range comp.Vars(p) {
			if v, _ := comp.Value(p, 0, name); v != 0 {
				inits = append(inits, wireInit{p, name, v})
			}
		}
	}
	feed := flatten(comp)
	feed = feed[:len(feed)-(len(inits)+len(feed))%ingestAck]
	return inits, feed
}

// wireInit is one initial variable value.
type wireInit struct {
	proc  int
	name  string
	value int
}

// measureIngest streams inits and feed through one session with the
// given encoding and returns wall time, events/s, and allocs/event
// across the streaming window, which ends when the ack covering the
// final frame arrives.
func measureIngest(comp *computation.Computation, inits []wireInit, feed []wireEvent, enc string) ingestResult {
	frames, ackEvery := int64(len(inits)+len(feed)), ingestAck
	if enc == server.EncodingBinary {
		frames, ackEvery = frames/ingestAck, 1
	}
	srv := server.New(server.Config{Registry: obs.NewRegistry(), AckEvery: ackEvery})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go srv.Serve(ln) //nolint:errcheck // closed by Shutdown
	pred := "conj(x0@P1 >= 2, x0@P2 >= 2, x0@P3 >= 2)"
	sess, err := client.Dial(ln.Addr().String(), client.Config{
		Processes: comp.N(),
		Watches:   []server.Watch{{Op: "EF", Pred: pred}},
		Encoding:  enc,
		BatchSize: ingestAck,
		Reconnect: true, // sequenced frames, hence acks
	})
	if err != nil {
		panic(err)
	}
	go func() { // drain verdict pushes so the reader never stalls
		for {
			select {
			case <-sess.Verdicts():
			case <-sess.Done():
				return
			}
		}
	}()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, in := range inits {
		sess.SetInitial(in.proc, in.name, in.value)
	}
	for _, e := range feed {
		switch e.kind {
		case computation.Internal:
			sess.Internal(e.proc, e.sets)
		case computation.Send:
			sess.SendMsg(e.proc, e.msg, e.sets)
		case computation.Receive:
			sess.Receive(e.proc, e.msg, e.sets)
		}
	}
	for sess.Acked() < frames {
		if err := sess.Err(); err != nil {
			panic(err)
		}
		time.Sleep(20 * time.Microsecond)
	}
	dt := time.Since(start)
	runtime.ReadMemStats(&m1)

	gb, err := sess.Close()
	if err != nil {
		panic(err)
	}
	if gb.Events != len(feed) {
		panic(fmt.Sprintf("server accounting: %d events (want %d)", gb.Events, len(feed)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv.Shutdown(ctx) //nolint:errcheck
	cancel()
	return ingestResult{
		dt:          dt,
		rate:        float64(len(feed)) / dt.Seconds(),
		allocsPerEv: float64(m1.Mallocs-m0.Mallocs) / float64(len(feed)),
	}
}
