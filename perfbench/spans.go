package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one completed interval: the benchmark's own span around a call
// into a layer, or a span the program emitted. Times are nanoseconds
// since the recorder's origin; parent is an index into the same slice
// (-1 for a root).
type span struct {
	name       string
	parent     int
	start, end int64
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced mode: begin returns -1 and end ignores it, so measured
// code pays one nil check.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// addProgram appends the spans the program emitted (server pipeline
// spans, core detection spans) as a second forest, re-linking parents
// by their string ids.
func (r *recorder) addProgram(recs []obs.SpanRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	index := make(map[string]int, len(recs))
	for i, rec := range recs {
		index[rec.ID] = base + i
	}
	for _, rec := range recs {
		// The tracer writes its own RFC 3339 stamps; one that fails to
		// parse keeps its slot (parents index by position) as an empty
		// span at the origin.
		var start, end int64
		if ts, err := time.Parse(time.RFC3339Nano, rec.TS); err == nil {
			start = ts.Sub(r.origin).Nanoseconds()
			end = start + rec.DurUS*1000
		}
		parent, ok := index[rec.Parent]
		if !ok {
			parent = -1
		}
		r.spans = append(r.spans, span{name: "program." + rec.Span, parent: parent, start: start, end: end})
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval its children cover (children clipped to the parent, overlaps
// among children counted once). Open spans count as zero.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			c := spans[k]
			a, b := max(c.start, s.start), min(c.end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		for j, v := range ivs {
			switch {
			case j == 0:
				curA, curB = v.a, v.b
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerOf maps a span name to its layer: the prefix before the first
// dot ("core.Detect" → "core"). Program spans are "program.<name>" and
// belong to the server pipeline, except the per-session root, whose
// self time is the session's idle time, and core's per-run record.
func layerOf(name string) string {
	switch name {
	case "program.session":
		return "idle"
	case "program.detect":
		return "core"
	}
	if strings.HasPrefix(name, "program.") {
		return "server"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time per layer, in seconds. Root spans of the
// benchmark (named "run.*") contribute their self time under
// "unattributed": time inside the measured window no layer span covers.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for i, s := range spans {
		out[layerOf(s.name)] += float64(self[i]) / 1e9
	}
	out["unattributed"] = out["run"]
	delete(out, "run")
	return out
}

// dump writes every span as one JSON line.
func (r *recorder) dump(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID      int    `json:"id"`
		Parent  int    `json:"parent"`
		Name    string `json:"span"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	r.mu.Lock()
	for i, s := range r.spans {
		if err := enc.Encode(line{i, s.parent, s.name, s.start, s.end}); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
