package server_test

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/pir"
	"repro/internal/server"
)

// latchedAfter ingests frames into a fresh two-process session watching
// EF(x@P1 == 0) — true on the initial state, so it latches the moment
// the watches register — and returns the latched verdict and error
// frames in order, rendered as strings, plus the events applied.
func latchedAfter(t *testing.T, frames ...server.ClientFrame) ([]string, int64) {
	t.Helper()
	srv := server.New(server.Config{Registry: obs.NewRegistry()})
	sess, err := srv.Open(server.SessionConfig{Processes: 2, Watches: []server.Watch{{Op: "EF", Pred: "x@P1 == 0"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close("test")
	for _, f := range frames {
		if err := sess.Ingest(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, fr := range sess.Frames() {
		if fr.Type == server.FrameVerdict {
			got = append(got, fmt.Sprintf("verdict@%d", fr.Event))
		} else {
			got = append(got, fr.Error)
		}
	}
	return got, sess.Events()
}

// TestApplyRowFramings pins the one apply path's per-framing behaviour:
// single init/event frames keep their reject texts, a single event
// registers the watches before its process-range check, an unknown kind
// is a per-frame reject, and batch rows name their index and check the
// process before registering the watches.
func TestApplyRowFramings(t *testing.T) {
	got, events := latchedAfter(t,
		server.ClientFrame{Type: server.FrameInit, Proc: 0, Var: "x"},
		server.ClientFrame{Type: server.FrameInit, Proc: 1},
		server.ClientFrame{Type: server.FrameEvent, Proc: 3, Kind: "internal"},
		server.ClientFrame{Type: server.FrameInit, Proc: 2, Var: "y", Value: 1},
		server.ClientFrame{Type: server.FrameEvent, Proc: 1, Kind: "recv"},
		server.ClientFrame{Type: server.FrameEvent, Proc: 1, Kind: "internal"},
		server.ClientFrame{Type: server.FrameInit, Proc: 1, Var: "z"},
		server.ClientFrame{Type: server.FrameEvent, Proc: 2, Kind: "receive", Msg: 4},
	)
	want := []string{
		"init for process 0 outside [1,2]",
		"init frame without var",
		"verdict@0", // the out-of-range event registered the watches first
		"event for process 3 outside [1,2]",
		"init after watches started evaluating (send inits first)",
		`unknown event kind "recv"`,
		"init for process 1 after its events",
		"receive of unknown message 4 (dropped or unsent)",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || events != 1 {
		t.Errorf("single frames latched\n %q (%d events)\nwant\n %q (1 event)", got, events, want)
	}

	b := &pir.Batch{}
	b.AddEvent(9, pir.EvInternal, 0, nil) // rejected before the watches register
	b.AddInit(1, "x", 5)                  // so this init still applies
	b.AddInit(1, "", 0)
	b.AddEvent(2, pir.EvInternal, 0, nil)
	b.AddInit(2, "y", 1)
	b.AddInit(1, "w", 1)
	b.AddEvent(1, pir.EvSend, 3, nil)
	b.AddEvent(2, pir.EvSend, 3, nil)
	got, events = latchedAfter(t, server.ClientFrame{Type: server.FrameBatch, Batch: b})
	want = []string{
		"batched event 0 for process 9 outside [1,2]",
		"batched init 2 without var",
		"batched init for process 2 after its events",
		"init after watches started evaluating (send inits first)",
		"message 3 sent twice",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || events != 2 {
		t.Errorf("batch rows latched\n %q (%d events)\nwant\n %q (2 events)", got, events, want)
	}
}

// TestVerdictsOnOneEventInWatchOrder latches several watches on one event
// and requires their verdict frames in watch order with consecutive Idx,
// whether the events arrive as single frames or as one batch. The
// monitor retires latched watches from its dispatch lists in whatever
// order it visits them; the session's frame order must not follow it.
func TestVerdictsOnOneEventInWatchOrder(t *testing.T) {
	watches := []server.Watch{
		{Op: "EF", Pred: "x@P2 == 1"},
		{Op: "AG", Pred: "x@P1 == 0"},
		{Op: "EF", Pred: "x@P1 == 1"},
		{Op: "STABLE", Pred: "x@P1 == 1"},
		{Op: "AG", Pred: "x@P3 == 0 && x@P2 <= 0"},
		{Op: "EF", Pred: "x@P1 == 1 && x@P2 == 1"},
		{Op: "AG", Pred: "x@P3 == 0"},
	}
	want := "[1:w1@1 2:w2@1 3:w3@1 4:w0@2 5:w4@2 6:w5@2]"
	b := &pir.Batch{}
	b.AddEvent(1, pir.EvInternal, 0, map[string]int{"x": 1})
	b.AddEvent(2, pir.EvInternal, 0, map[string]int{"x": 1})
	for name, frames := range map[string][]server.ClientFrame{
		"single": {
			{Type: server.FrameEvent, Proc: 1, Kind: "internal", Sets: map[string]int{"x": 1}},
			{Type: server.FrameEvent, Proc: 2, Kind: "internal", Sets: map[string]int{"x": 1}},
		},
		"batch": {{Type: server.FrameBatch, Batch: b}},
	} {
		srv := server.New(server.Config{Registry: obs.NewRegistry()})
		sess, err := srv.Open(server.SessionConfig{Processes: 3, Watches: watches})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if err := sess.Ingest(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, fr := range sess.Frames() {
			got = append(got, fmt.Sprintf("%d:w%d@%d", fr.Idx, fr.Watch, fr.Event))
		}
		sess.Close("test")
		if fmt.Sprint(got) != want {
			t.Errorf("%s: verdict frames %v, want %s", name, got, want)
		}
	}
}
