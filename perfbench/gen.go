package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/computation"
	"repro/internal/server"
	"repro/internal/trace"
)

// This file generates every input the benchmark feeds the program, from
// the run's seed alone. The generators are the benchmark's own (not
// internal/sim), so a change to the program cannot change its inputs.

// ev is one event of a generated execution, in stream order. Its
// variable updates are kept as a short list, not a map: the streamed
// inputs sit in the same heap as the system under test, and a map per
// event would inflate the live heap the program's collector scans.
type ev struct {
	proc int // 0-based
	kind computation.Kind
	msg  int
	sets []kv
}

type kv struct {
	name string
	val  int
}

// set assigns name in the event's updates.
func (e *ev) set(name string, val int) {
	for i := range e.sets {
		if e.sets[i].name == name {
			e.sets[i].val = val
			return
		}
	}
	e.sets = append(e.sets, kv{name, val})
}

// setsMap returns the updates as the map the client and trace APIs take.
func (e *ev) setsMap() map[string]int {
	if len(e.sets) == 0 {
		return nil
	}
	m := make(map[string]int, len(e.sets))
	for _, s := range e.sets {
		m[s.name] = s.val
	}
	return m
}

// skeleton draws a random message-passing execution of m events over n
// processes in one valid global order: a scheduled process receives its
// oldest pending message with probability 0.7, else sends to a random
// peer with probability 0.3, else steps internally. Every event may set
// the noise variable x to a value in [0,4).
func skeleton(rng *rand.Rand, n, m int) []ev {
	inbox := make([][]int, n)
	next := 1
	evs := make([]ev, 0, m)
	for len(evs) < m {
		p := rng.Intn(n)
		e := ev{proc: p, kind: computation.Internal}
		switch {
		case len(inbox[p]) > 0 && rng.Float64() < 0.7:
			e.kind, e.msg = computation.Receive, inbox[p][0]
			inbox[p] = inbox[p][1:]
		case n > 1 && rng.Float64() < 0.3:
			q := rng.Intn(n - 1)
			if q >= p {
				q++
			}
			e.kind, e.msg = computation.Send, next
			inbox[q] = append(inbox[q], next)
			next++
		}
		if rng.Intn(2) == 0 {
			e.set("x", rng.Intn(4))
		}
		evs = append(evs, e)
	}
	return evs
}

// toFile renders evs as a trace file (1-based processes, as on disk).
func toFile(n int, evs []ev) trace.File {
	f := trace.File{Version: trace.Version, Processes: n, Events: make([]trace.EventRec, len(evs))}
	for i, e := range evs {
		f.Events[i] = trace.EventRec{Proc: e.proc + 1, Kind: e.kind.String(), Msg: e.msg, Sets: e.setsMap()}
	}
	return f
}

func encodeFile(f trace.File) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(f); err != nil {
		panic("perfbench: encode trace: " + err.Error()) // a File of scalars always marshals
	}
	return buf.Bytes()
}

// offlineTrace generates one offline trace of about m events over n ≥ 2
// processes. Besides the noise variable x, every event sets c to its
// process-local index, and the last event of every process sets z = 1.
// The trace ends with a handshake: the last process (w) sets w = 1,
// then clears it in a send that P1's last event receives. So every cut
// containing all last events has w = 0, and no cut with P1 past its
// receive has w = 1 — EF(z@P1 == 1 ∧ … ∧ w@Pw == 1) is false, and the
// advancement only learns that at the end.
func offlineTrace(rng *rand.Rand, n, m int) []byte {
	evs := skeleton(rng, n, m-n-2)
	next := 0
	for _, e := range evs {
		next = max(next, e.msg)
	}
	w := n - 1
	for p := 1; p < w; p++ {
		evs = append(evs, ev{proc: p, kind: computation.Internal, sets: []kv{{"z", 1}}})
	}
	evs = append(evs,
		ev{proc: w, kind: computation.Internal, sets: []kv{{"w", 1}}},
		ev{proc: w, kind: computation.Send, msg: next + 1, sets: []kv{{"w", 0}, {"z", 1}}},
		ev{proc: 0, kind: computation.Receive, msg: next + 1, sets: []kv{{"z", 1}}})
	count := make([]int, n)
	for i := range evs {
		count[evs[i].proc]++
		evs[i].set("c", count[evs[i].proc])
	}
	return encodeFile(toFile(n, evs))
}

// cell is one Table 1 cell of the offline workload: a formula whose
// verdict forces a full sweep of the polynomial algorithm named.
type cell struct {
	name    string // metric label: core.<name>.s
	formula string
}

// bigCells run on the wide and narrow traces. Their verdicts do not
// depend on the seed: x never exceeds 3, z marks each process's last
// event, and w the handshake that ends every trace. The formulas name
// P1–P4; on the wide trace the other processes still lie in the cuts
// the algorithms walk through.
var bigCells = []cell{
	// EF linear, false: the advancement walks every process to its last
	// event before the handshake forbids P4 for good.
	{"ef_linear", "EF(conj(z@P1 == 1, z@P2 == 1, z@P3 == 1, w@P4 == 1))"},
	// A1 (EG linear), holds: the greedy path runs from ∅ to E.
	{"a1", "EG(conj(x@P1 <= 3, x@P2 <= 3, x@P3 <= 3, x@P4 <= 3))"},
	// A2 (AG linear), holds: every meet-irreducible cut is checked.
	{"a2", "AG(conj(c@P1 >= 0, x@P2 <= 3, x@P3 <= 3, x@P4 <= 3))"},
	// A3 (E[conjunctive U linear]), holds at the cut of the last events.
	{"a3", "E[conj(x@P1 <= 3, x@P2 <= 3) U conj(z@P1 == 1, z@P2 == 1, z@P3 == 1, z@P4 == 1)]"},
	// AU composition (disjunctive U disjunctive), holds.
	{"au", "A[disj(x@P1 <= 3, x@P2 <= 3) U disj(z@P1 == 1, z@P2 == 1)]"},
	// AG disjunctive, false only at the cut of the last events: the dual
	// advancement walks to the end.
	{"ag_disj", "AG(disj(z@P1 == 0, z@P2 == 0, z@P3 == 0, z@P4 == 0))"},
}

// sliceCell runs on the small traces: a regular conjunctive factor
// conjoined with an arbitrary remainder, routed through the slice.
var sliceCell = cell{"ef_slice",
	"EF(conj(x@P1 >= 1, x@P2 >= 1) && ((x@P1 == 2 && x@P3 == 1) || (x@P2 == 3 && x@P3 == 0)))"}

// stream is one generated session: its events in stream order and its
// watches, with the event index each planned watch latches at.
type stream struct {
	n       int
	evs     []ev
	watches []server.Watch
	planned []int // latch event count (1-based) per watch; 0 = never
	// evidence is, per watch, the offline formula whose witness the
	// latched cut must equal: the watch itself for EF; for AG, an EF
	// whose least satisfying cut is the causal past of the first
	// violating local state — the cut the monitor reports.
	evidence []string
}

// genStream draws an execution of m events over n processes and plans
// nEF EF watches and nAG AG watches whose verdicts latch at event counts
// spread uniformly over [lo, hi). An EF watch conj(fK@Pa == 1, fK@Pb ==
// 1) latches when its second flag is set; an AG watch conj(gK@Pa == 0,
// gK@Pb == 0) when its first is. Two background watches never latch and
// add steady per-event work.
func genStream(rng *rand.Rand, n, m, nEF, nAG, lo, hi int) stream {
	st := stream{n: n, evs: skeleton(rng, n, m)}
	for k := 0; k < nEF+nAG; k++ {
		t := lo + rng.Intn(hi-lo) - 1 // 0-based index of the latching event
		b := st.evs[t].proc
		if k < nEF {
			s := otherProc(st.evs, t-1-rng.Intn(64), b, -1)
			name := fmt.Sprintf("f%d", k)
			st.evs[s].set(name, 1)
			st.evs[t].set(name, 1)
			pred := fmt.Sprintf("conj(%s@P%d == 1, %s@P%d == 1)", name, st.evs[s].proc+1, name, b+1)
			st.watches = append(st.watches, server.Watch{Op: "EF", Pred: pred})
			st.evidence = append(st.evidence, "EF("+pred+")")
		} else {
			u := otherProc(st.evs, t+1+rng.Intn(64), b, +1)
			name := fmt.Sprintf("g%d", k)
			st.evs[t].set(name, 1)
			st.evs[u].set(name, 1)
			st.watches = append(st.watches, server.Watch{Op: "AG",
				Pred: fmt.Sprintf("conj(%s@P%d == 0, %s@P%d == 0)", name, b+1, name, st.evs[u].proc+1)})
			st.evidence = append(st.evidence,
				fmt.Sprintf("EF(conj(%s@P%d != 0, x@P%d <= 3))", name, b+1, (b+1)%n+1))
		}
		st.planned = append(st.planned, t+1)
	}
	st.watches = append(st.watches,
		server.Watch{Op: "AG", Pred: "conj(x@P1 <= 3, x@P2 <= 3, x@P3 <= 3, x@P4 <= 3)"},
		server.Watch{Op: "EF", Pred: "conj(x@P1 == 9, x@P2 == 9)"})
	st.planned = append(st.planned, 0, 0)
	st.evidence = append(st.evidence, "", "")
	return st
}

// otherProc returns the first index from i, stepping by dir, whose event
// is not on process b (clamped to the stream).
func otherProc(evs []ev, i, b, dir int) int {
	for ; i >= 0 && i < len(evs); i += dir {
		if evs[i].proc != b {
			return i
		}
	}
	panic("perfbench: no event on another process") // a random skeleton always has one
}

// prefixCuts returns, for every k in [0, len(evs)], the cut of the first
// k events: the oracle's view of the prefix a server-side count names.
func prefixCuts(n int, evs []ev) []computation.Cut {
	cuts := make([]computation.Cut, len(evs)+1)
	cur := computation.NewCut(n)
	cuts[0] = cur.Copy()
	for i, e := range evs {
		cur[e.proc]++
		cuts[i+1] = cur.Copy()
	}
	return cuts
}
