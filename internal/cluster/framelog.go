package cluster

import (
	"encoding/json"
	"fmt"

	"repro/internal/pir"
	"repro/internal/server"
)

// frameLog is a keyed session's accepted sequenced frames, stored once
// in the encoding the replication link ships: entry i carries seq i+1.
// Every entry is self-contained, so any suffix of the log decodes on
// its own:
//
//   - a batch frame is FrameMagic followed by a pir binary batch payload
//     encoded with a fresh VarTable, so every name the frame uses is
//     declared inside it;
//   - any other sequenced frame (init, event, bye) is its NDJSON line.
//     So is a batch whose columns would not survive the binary encoding
//     unchanged; such a batch is rejected on apply, and replay must
//     reproduce that rejection exactly. (Likewise an init or event frame
//     carrying stray batch columns, which apply ignores, stays an init
//     or event.) An ordinary init/event line is the canonical line,
//     written and read without encoding/json (server.AppendClientFrame).
//
// The client's own binary frames are never stored as received: their
// names reference the connection's interning table, which the client
// resets on every reconnect and re-declares in a different order.
//
// Entries are packed into append-only chunks, so the log costs one
// allocation per chunk instead of one per frame, and a snapshot can
// alias the entries without copying them.
type frameLog struct {
	entries [][]byte
	chunk   []byte // tail chunk; entries alias its filled prefix
}

// Chunk sizes: a log starts small (most sessions are short) and doubles
// up to the cap, which bounds the unused tail a long log retains.
const (
	minLogChunk = 1 << 10
	maxLogChunk = 64 << 10
)

// Len returns the number of entries, which is also the log's high-water
// seq.
func (l *frameLog) Len() int { return len(l.entries) }

// add appends a copy of entry.
func (l *frameLog) add(entry []byte) {
	if cap(l.chunk)-len(l.chunk) < len(entry) {
		size := min(max(2*cap(l.chunk), minLogChunk), maxLogChunk)
		l.chunk = make([]byte, 0, max(size, len(entry)))
	}
	start := len(l.chunk)
	l.chunk = append(l.chunk, entry...)
	l.entries = append(l.entries, l.chunk[start:len(l.chunk):len(l.chunk)])
}

// snapshot returns a read-only view of the current entries that stays
// valid while l keeps growing: entry bytes are never rewritten, and the
// view owns no chunk, so appending to it allocates a fresh one instead
// of writing into l's spare capacity.
func (l *frameLog) snapshot() frameLog {
	n := len(l.entries)
	return frameLog{entries: l.entries[:n:n]}
}

// decode returns the log as client frames, in seq order, for
// server.OpenRecovered. Batch frames carry pooled batches, which the
// session recycles once it applies them.
func (l *frameLog) decode() ([]server.ClientFrame, error) {
	frames := make([]server.ClientFrame, len(l.entries))
	var vt pir.VarTable
	for i, e := range l.entries {
		f, err := decodeEntry(e, &vt)
		if err != nil {
			return nil, fmt.Errorf("frame log entry %d: %v", i+1, err)
		}
		frames[i] = f
	}
	return frames, nil
}

// appendEntry appends the log entry for an accepted sequenced frame to
// dst. vt is scratch; it is reset before use.
func appendEntry(dst []byte, f server.ClientFrame, vt *pir.VarTable) []byte {
	if f.Type == server.FrameBatch && f.Batch != nil && binaryRoundTrips(f.Batch) {
		vt.Reset()
		dst = append(dst, server.FrameMagic)
		return pir.AppendBatch(dst, f.Seq, f.Batch, vt)
	}
	if line, ok := server.AppendClientFrame(dst, f); ok {
		return line[:len(line)-1] // entries carry no line terminator
	}
	b, err := json.Marshal(f)
	if err != nil {
		panic("cluster: marshal frame log entry: " + err.Error())
	}
	return append(dst, b...)
}

// binaryRoundTrips reports whether b decodes back from the pir binary
// encoding unchanged: structurally valid (AppendBatch indexes the set
// columns by the offsets) with every proc non-negative (the event head
// is unsigned). Binary-decoded batches always qualify; a JSON-decoded
// batch that does not is logged as its NDJSON line instead.
func binaryRoundTrips(b *pir.Batch) bool {
	if b.Validate() != nil {
		return false
	}
	for _, p := range b.Procs {
		if p < 0 {
			return false
		}
	}
	return true
}

// decodeEntry decodes one log entry. A batch entry yields a pooled
// batch (the caller recycles it or hands it to a session); vt is
// scratch, reset before use.
func decodeEntry(e []byte, vt *pir.VarTable) (server.ClientFrame, error) {
	if len(e) > 0 && e[0] == server.FrameMagic {
		seq, body, err := pir.BatchSeq(e[1:])
		if err != nil {
			return server.ClientFrame{}, err
		}
		vt.Reset()
		b := pir.GetBatch()
		if err := b.DecodeBody(body, vt); err != nil {
			b.Recycle()
			return server.ClientFrame{}, err
		}
		return server.ClientFrame{Type: server.FrameBatch, Seq: seq, Batch: b}, nil
	}
	f, err := server.DecodeClientFrame(e)
	if err != nil {
		return f, err
	}
	switch f.Type {
	case server.FrameInit, server.FrameEvent, server.FrameBatch, server.FrameBye:
	default:
		return f, fmt.Errorf("cluster: %q frame in a frame log", f.Type)
	}
	if f.Seq <= 0 {
		return f, fmt.Errorf("cluster: unsequenced %q frame in a frame log", f.Type)
	}
	return f, nil
}

// entrySeq validates a log entry received from a peer and returns its
// seq. The entry is decoded in full (then its batch is recycled), so a
// malformed body is refused before it can reach the log.
func entrySeq(e []byte, vt *pir.VarTable) (int64, error) {
	f, err := decodeEntry(e, vt)
	if err != nil {
		return 0, err
	}
	f.Batch.Recycle()
	return f.Seq, nil
}
