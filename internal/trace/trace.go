// Package trace serializes computations to a versioned JSON format and
// loads them back, so traces can be generated once (cmd/tracegen), shipped,
// and analyzed by the CLI tools (cmd/hbdetect, cmd/latticeviz).
//
// The format lists events in a valid global order (every receive after its
// send); vector clocks are not stored — they are recomputed on load, which
// also revalidates the trace.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"

	"repro/internal/computation"
)

// Version is the current trace format version.
const Version = 1

// MaxProcesses bounds the process count Build accepts. Per-process state
// is allocated up front, and trace files now also arrive from untrusted
// network peers (hbserver snapshots, fuzzed inputs), so a hostile
// "processes": 1e9 header must fail fast instead of exhausting memory.
const MaxProcesses = 1 << 16

// File is the on-disk representation of a computation.
type File struct {
	Version   int        `json:"version"`
	Processes int        `json:"processes"`
	Initial   []InitVar  `json:"initial,omitempty"`
	Events    []EventRec `json:"events"`
}

// InitVar records an initial variable value; processes are 1-based in the
// format, matching the paper's notation.
type InitVar struct {
	Proc  int    `json:"proc"`
	Var   string `json:"var"`
	Value int    `json:"value"`
}

// EventRec is one event. Kind is "internal", "send" or "receive"; Msg links
// sends to receives.
type EventRec struct {
	Proc  int            `json:"proc"`
	Kind  string         `json:"kind"`
	Msg   int            `json:"msg,omitempty"`
	Label string         `json:"label,omitempty"`
	Sets  map[string]int `json:"sets,omitempty"`
}

// Encode writes comp as JSON to w.
func Encode(w io.Writer, comp *computation.Computation) error {
	f := FileFrom(comp)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// FileFrom converts comp to its serialized form: initial values plus the
// events of one valid linearization. Useful on its own when a computation
// produced in memory (e.g. a lowered span trace) must be persisted or
// re-streamed without an intermediate encode/decode round-trip.
func FileFrom(comp *computation.Computation) File {
	f := File{Version: Version, Processes: comp.N()}
	for i := 0; i < comp.N(); i++ {
		for _, name := range comp.Vars(i) {
			if v, ok := comp.Value(i, 0, name); ok && v != 0 {
				f.Initial = append(f.Initial, InitVar{Proc: i + 1, Var: name, Value: v})
			}
		}
	}
	// Emit events in a valid global order via a linearization.
	seq := comp.SomeLinearization()
	for s := 1; s < len(seq); s++ {
		prev, cur := seq[s-1], seq[s]
		for i := range cur {
			if cur[i] > prev[i] {
				e := comp.Event(i, cur[i])
				rec := EventRec{Proc: i + 1, Kind: e.Kind.String(), Label: e.Label}
				if e.Kind != computation.Internal {
					rec.Msg = e.Msg
				}
				if len(e.Sets) > 0 {
					rec.Sets = make(map[string]int, len(e.Sets))
					for k, v := range e.Sets {
						rec.Sets[k] = v
					}
				}
				f.Events = append(f.Events, rec)
				break
			}
		}
	}
	return f
}

// Decode reads a JSON trace from r, validates it, and rebuilds the
// computation (including vector clocks).
func Decode(r io.Reader) (*computation.Computation, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return Build(f)
}

// Build constructs the computation described by a File.
func Build(f File) (*computation.Computation, error) {
	if f.Version != Version {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", f.Version, Version)
	}
	if f.Processes < 1 || f.Processes > MaxProcesses {
		return nil, fmt.Errorf("trace: %d processes (want 1..%d)", f.Processes, MaxProcesses)
	}
	b := computation.NewBuilder(f.Processes)
	for _, iv := range f.Initial {
		if iv.Proc < 1 || iv.Proc > f.Processes {
			return nil, fmt.Errorf("trace: initial value for unknown process %d", iv.Proc)
		}
		b.SetInitial(iv.Proc-1, iv.Var, iv.Value)
	}
	msgs := make(map[int]computation.Msg)
	for idx, rec := range f.Events {
		if rec.Proc < 1 || rec.Proc > f.Processes {
			return nil, fmt.Errorf("trace: event %d on unknown process %d", idx, rec.Proc)
		}
		proc := rec.Proc - 1
		var e *computation.Event
		switch rec.Kind {
		case "internal", "":
			e = b.Internal(proc)
		case "send":
			var m computation.Msg
			e, m = b.Send(proc)
			if _, dup := msgs[rec.Msg]; dup {
				return nil, fmt.Errorf("trace: event %d resends message %d", idx, rec.Msg)
			}
			msgs[rec.Msg] = m
		case "receive":
			m, ok := msgs[rec.Msg]
			if !ok {
				return nil, fmt.Errorf("trace: event %d receives message %d before its send", idx, rec.Msg)
			}
			e = b.Receive(proc, m)
		default:
			return nil, fmt.Errorf("trace: event %d has unknown kind %q", idx, rec.Kind)
		}
		e.Label = rec.Label
		// The event owns a copy of its assignments.
		if len(rec.Sets) > 0 {
			e.Sets = maps.Clone(rec.Sets)
		}
	}
	comp, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return comp, nil
}
