package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/server"
)

// Replication protocol message types. The protocol rides the same TCP
// listener as client ingest: the server's takeover hook recognizes the
// repl-hello line and hands the connection to the replica handler
// before client-frame decoding. Control messages are NDJSON, one
// replMsg per line; the frames of a session's log travel as binary
// repl-frame messages (see appendReplFrame) on the same shared
// server.FrameScanner.
//
// The dialog is deliberately half-step: after repl-hello the sender
// waits for repl-welcome before writing anything else, so no replication
// byte can sit in the ingest handshake's scanner buffer when the
// connection is handed over. After that the sender streams repl-open and
// repl-frame messages and the replica answers with repl-acks carrying
// its contiguous per-session high-water seq — the sender's durability
// watermark, which gates client acks. Acks are coalesced: the replica
// answers once per session per drained read, not once per frame.
//
// Every session-scoped message carries the session's incarnation epoch,
// minted by the owner when it first hosts the key (fresh open, failover
// promotion, or drain handoff — each bumps it past every epoch the
// minting node has seen for the key). A replica holding an older epoch
// fences: it truncates the stale log and adopts the new incarnation. A
// message carrying an older epoch than the replica holds is answered
// with repl-reject code "stale-epoch" — the typed signal that tells a
// zombie ex-owner it has been superseded.
const (
	msgReplHello      = "repl-hello"       // sender → replica: opens the link (From = sender identity)
	msgReplWelcome    = "repl-welcome"     // replica → sender: link accepted
	msgReplOpen       = "repl-open"        // sender → replica: begin (or resync) a session log; Hello carries the keyed hello, Epoch the incarnation
	msgReplAck        = "repl-ack"         // replica → sender: contiguous per-session high-water seq applied to the log (Epoch echoes the log's)
	msgReplReject     = "repl-reject"      // replica → sender: message refused; Code says why, Epoch is the epoch the replica holds
	msgReplHandoff    = "repl-handoff"     // sender → replica: drain handoff offer — adopt the log at Seq frames under the bumped Epoch
	msgReplHandoffAck = "repl-handoff-ack" // replica → sender: handoff accepted; the replica now owns the session
)

// repl-reject codes. Stale-epoch reuses the client-protocol constant so
// one grep finds every fencing decision.
const (
	rejectStaleEpoch      = server.CodeStaleEpoch // message epoch is older than the held one
	rejectHandoffMismatch = "handoff-mismatch"    // handoff offer does not match the replica's log
	rejectHandoffFailed   = "handoff-failed"      // replica could not rebuild the session from the log
)

// replMsg is one replication protocol message. Type selects the fields.
type replMsg struct {
	Type string `json:"type"`
	// From identifies the dialing node on repl-hello (its ring identity).
	From string `json:"from,omitempty"`
	// Session is the placement key the message concerns.
	Session string `json:"session,omitempty"`
	// Seq is the replica's contiguous high-water mark on repl-ack, and
	// the expected log length on repl-handoff.
	Seq int64 `json:"seq,omitempty"`
	// Epoch is the session's incarnation epoch: the log's epoch on
	// repl-open/repl-ack, the bumped epoch on repl-handoff and
	// repl-handoff-ack, and the epoch the replica holds on repl-reject.
	Epoch int64 `json:"epoch,omitempty"`
	// Code classifies a repl-reject.
	Code string `json:"code,omitempty"`
	// Hello is the session's keyed hello frame on repl-open.
	Hello *server.ClientFrame `json:"hello,omitempty"`
}

// isReplHello reports whether a connection's first line opens the
// replication protocol — the takeover test. A client hello decodes too
// (both are JSON objects with a type field) but can never carry the
// repl-hello type, so the check cannot misfire on ingest traffic.
func isReplHello(line []byte) bool {
	var m replMsg
	if json.Unmarshal(line, &m) != nil {
		return false
	}
	return m.Type == msgReplHello
}

// decodeReplMsg parses one replication protocol line.
func decodeReplMsg(line []byte) (replMsg, error) {
	var m replMsg
	if err := json.Unmarshal(line, &m); err != nil {
		return m, fmt.Errorf("cluster: bad replication frame: %v", err)
	}
	return m, nil
}

// appendReplMsg marshals m as one NDJSON line.
func appendReplMsg(m replMsg) []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic("cluster: marshal replication frame: " + err.Error())
	}
	return append(b, '\n')
}

// appendReplFrame appends one binary repl-frame to dst: a server binary
// frame of type BinReplFrame whose payload is
//
//	varint  epoch     the log's incarnation epoch (zigzag)
//	uvarint keylen    then the session key bytes
//	entry             one frameLog entry, to the end of the payload
//
// The entry's own seq (inside the pir payload or the NDJSON line) is the
// frame's position in the log.
func appendReplFrame(dst []byte, key string, epoch int64, entry []byte) []byte {
	var hdr [2 * binary.MaxVarintLen64]byte
	h := binary.AppendVarint(hdr[:0], epoch)
	h = binary.AppendUvarint(h, uint64(len(key)))
	dst = append(dst, server.FrameMagic, server.BinReplFrame)
	dst = binary.AppendUvarint(dst, uint64(len(h)+len(key)+len(entry)))
	dst = append(dst, h...)
	dst = append(dst, key...)
	return append(dst, entry...)
}

// decodeReplFrame splits a repl-frame payload into its envelope and the
// log entry, which aliases p. The entry itself is validated separately
// (entrySeq).
func decodeReplFrame(p []byte) (key string, epoch int64, entry []byte, err error) {
	epoch, n := binary.Varint(p)
	if n <= 0 {
		return "", 0, nil, fmt.Errorf("cluster: bad repl-frame epoch")
	}
	p = p[n:]
	kl, n := binary.Uvarint(p)
	if n <= 0 || kl == 0 || kl > server.MaxKeyBytes || kl > uint64(len(p)-n) {
		return "", 0, nil, fmt.Errorf("cluster: bad repl-frame session key")
	}
	p = p[n:]
	if int(kl) == len(p) {
		return "", 0, nil, fmt.Errorf("cluster: repl-frame without a frame")
	}
	return string(p[:kl]), epoch, p[kl:], nil
}
