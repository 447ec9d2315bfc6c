package server

import (
	"math"
	"strconv"
)

// The canonical init/event line is the one NDJSON shape every Go
// producer writes for ingest frames — the client, and the cluster frame
// log — and the one shape DecodeClientFrame reads without
// encoding/json: exactly what json.Marshal emits for an init or event
// ClientFrame. AppendClientFrame writes it without reflection, and
// scanCanonical reads it back without reflection. Anything else (other
// frame types, whitespace, escapes, non-ASCII, unknown or mis-cased
// keys, null, exponents) goes through the strict encoding/json path, so
// the fast paths change the cost of a frame, never its meaning:
// FuzzDecodeClientFrame checks that a line scanCanonical takes decodes
// to the same frame under the strict decoder.

// AppendClientFrame appends f as one NDJSON line (json.Marshal(f)
// followed by '\n') to dst. It handles init and event frames whose
// fields fit the canonical line and reports false — with dst unchanged
// — for anything it cannot write byte-identically to json.Marshal:
// other frame types, fields init/event frames never carry, and strings
// json.Marshal would escape or that are not plain ASCII. Callers fall
// back to json.Marshal on false.
func AppendClientFrame(dst []byte, f ClientFrame) ([]byte, bool) {
	if f.Type != FrameInit && f.Type != FrameEvent {
		return dst, false
	}
	if f.Processes != 0 || f.Watches != nil || f.Resumable || f.Bounded || f.Encoding != "" ||
		f.Durability != "" || f.Session != "" || f.ID != 0 || f.Formula != "" || f.Batch != nil {
		return dst, false
	}
	if !plainString(f.Var) || !plainString(f.Kind) {
		return dst, false
	}
	// Keys are sorted, as json.Marshal sorts them; a small map sorts on
	// the stack.
	var keyBuf [8]string
	keys := keyBuf[:0]
	for k := range f.Sets {
		if !plainString(k) {
			return dst, false
		}
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := append(dst, `{"type":"`...)
	out = append(out, f.Type...)
	out = append(out, '"')
	out = appendIntField(out, `,"seq":`, f.Seq)
	out = appendIntField(out, `,"proc":`, int64(f.Proc))
	out = appendStringField(out, `,"var":"`, f.Var)
	out = appendIntField(out, `,"value":`, int64(f.Value))
	out = appendStringField(out, `,"kind":"`, f.Kind)
	out = appendIntField(out, `,"msg":`, int64(f.Msg))
	if len(keys) > 0 {
		out = append(out, `,"sets":{`...)
		for i, k := range keys {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, '"')
			out = append(out, k...)
			out = append(out, `":`...)
			out = strconv.AppendInt(out, int64(f.Sets[k]), 10)
		}
		out = append(out, '}')
	}
	return append(out, "}\n"...), true
}

// appendIntField appends an omitempty integer field.
func appendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendStringField appends an omitempty string field; key ends in the
// opening quote.
func appendStringField(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	dst = append(dst, key...)
	dst = append(dst, v...)
	return append(dst, '"')
}

// plainString reports whether json.Marshal writes s verbatim between
// quotes: printable ASCII without '"', '\\' or the HTML-escaped <, >, &.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// Canonical-line keys, one bit each for the duplicate check.
const (
	keyType = 1 << iota
	keySeq
	keyProc
	keyVar
	keyValue
	keyKind
	keyMsg
	keySets
)

// scanCanonical decodes a canonical init/event line: one object with no
// whitespace, lower-case keys from the init/event set, each at most
// once, "type" init or event, plain-ASCII escape-free strings, integer
// literals without sign-zero, leading zeros, fraction or exponent that
// fit their field, and nothing after the closing brace. It reports
// false on anything else, and the caller decodes strictly instead.
// Every line it takes, the strict decoder would decode to the same
// frame.
func scanCanonical(line []byte) (ClientFrame, bool) {
	var f ClientFrame
	sc := canonScanner{b: line}
	if !sc.byte('{') {
		return f, false
	}
	seen := 0
	for first := true; ; first = false {
		if sc.byte('}') {
			break
		}
		if !first && !sc.byte(',') {
			return f, false
		}
		key, ok := sc.str()
		if !ok || !sc.byte(':') {
			return f, false
		}
		var bit int
		switch string(key) {
		case "type":
			bit = keyType
			v, ok := sc.str()
			if !ok {
				return f, false
			}
			switch string(v) {
			case FrameInit:
				f.Type = FrameInit
			case FrameEvent:
				f.Type = FrameEvent
			default:
				return f, false
			}
		case "seq":
			bit = keySeq
			if f.Seq, ok = sc.int(); !ok {
				return f, false
			}
		case "proc":
			bit = keyProc
			if f.Proc, ok = sc.intField(); !ok {
				return f, false
			}
		case "var":
			bit = keyVar
			v, ok := sc.str()
			if !ok {
				return f, false
			}
			f.Var = string(v)
		case "value":
			bit = keyValue
			if f.Value, ok = sc.intField(); !ok {
				return f, false
			}
		case "kind":
			bit = keyKind
			v, ok := sc.str()
			if !ok {
				return f, false
			}
			f.Kind = kindString(v)
		case "msg":
			bit = keyMsg
			if f.Msg, ok = sc.intField(); !ok {
				return f, false
			}
		case "sets":
			bit = keySets
			if f.Sets, ok = sc.sets(); !ok {
				return f, false
			}
		default:
			return f, false
		}
		if seen&bit != 0 {
			return f, false
		}
		seen |= bit
	}
	if seen&keyType == 0 || sc.i != len(sc.b) {
		return f, false
	}
	return f, true
}

// kindString returns the event kind, without allocating for the three
// the protocol defines.
func kindString(v []byte) string {
	switch string(v) {
	case "internal":
		return "internal"
	case "send":
		return "send"
	case "receive":
		return "receive"
	}
	return string(v)
}

// canonScanner is the cursor scanCanonical reads through.
type canonScanner struct {
	b []byte
	i int
}

// byte consumes c if it is next.
func (s *canonScanner) byte(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a plain string literal and returns its contents, which
// alias the line.
func (s *canonScanner) str() ([]byte, bool) {
	if !s.byte('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c == '"' {
			s.i++
			return s.b[start : s.i-1], true
		}
		if !plainByte(c) {
			return nil, false
		}
		s.i++
	}
	return nil, false
}

// int consumes an integer literal that fits in an int64: an optional
// minus, then 0 or a digit run without a leading zero. "-0" is refused
// so the fast path never has to decide what sign a zero has. A fraction
// or exponent is refused by the caller, which expects ',' or '}' next.
func (s *canonScanner) int() (int64, bool) {
	neg := s.byte('-')
	start := s.i
	var u uint64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		d := uint64(s.b[s.i] - '0')
		if u > (math.MaxUint64-d)/10 {
			return 0, false
		}
		u = u*10 + d
		s.i++
	}
	n := s.i - start
	switch {
	case n == 0, n > 1 && s.b[start] == '0', neg && u == 0:
		return 0, false
	case neg && u <= 1<<63:
		return -int64(u), true
	case !neg && u <= math.MaxInt64:
		return int64(u), true
	}
	return 0, false
}

// intField consumes an integer literal that fits in an int.
func (s *canonScanner) intField() (int, bool) {
	v, ok := s.int()
	if !ok || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// sets consumes the sets object: plain string keys to int values. A
// repeated key keeps its last value, as the strict decoder's map
// assignment does. An empty object yields an empty, non-nil map.
func (s *canonScanner) sets() (map[string]int, bool) {
	if !s.byte('{') {
		return nil, false
	}
	m := make(map[string]int)
	for first := true; ; first = false {
		if s.byte('}') {
			return m, true
		}
		if !first && !s.byte(',') {
			return nil, false
		}
		k, ok := s.str()
		if !ok || !s.byte(':') {
			return nil, false
		}
		v, ok := s.intField()
		if !ok {
			return nil, false
		}
		m[string(k)] = v
	}
}
