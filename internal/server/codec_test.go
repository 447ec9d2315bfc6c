package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pir"
)

// TestScanCanonicalScope pins which lines take the reflection-free path:
// exactly the canonical init/event lines, never a near miss. Near misses
// still decode (or fail) through the strict path, which
// FuzzDecodeClientFrame cross-checks.
func TestScanCanonicalScope(t *testing.T) {
	cases := []struct {
		line string
		take bool
	}{
		{`{"type":"event","seq":5,"proc":2,"kind":"internal","sets":{"a":-1,"b":2}}`, true},
		{`{"type":"event","proc":1,"kind":"send","msg":3,"sets":{}}`, true},
		{`{"type":"init","seq":1,"proc":1,"var":"x","value":-7}`, true},
		{`{"proc":1,"type":"event"}`, true}, // key order is free
		{`{"type":"event","kind":"recv"}`, true},
		{`{"type":"event","sets":{"x":1,"x":2}}`, true}, // last wins, as in a map
		{`{"type":"event","seq":-9223372036854775808}`, true},
		{`{"type":"event","proc":1,"proc":2}`, false},
		{`{"Type":"event","proc":1}`, false},
		{`{"type":"hello","processes":2}`, false},
		{`{"type":"bye","seq":3}`, false},
		{`{"type":"event","proc":1,"session":"k"}`, false},
		{`{"type":"init","var":"x\u0041"}`, false},
		{"{\"type\":\"init\",\"var\":\"\xc3\xa9\"}", false},
		{`{"type":"event","var":"a<b"}`, false},
		{`{"type":"event","proc":1e3}`, false},
		{`{"type":"event","proc":1.5}`, false},
		{`{"type":"event","proc":-0}`, false},
		{`{"type":"event","proc":01}`, false},
		{`{"type":"event","seq":9223372036854775808}`, false},
		{`{"type":"event","proc":null}`, false},
		{`{"type":"event","sets":null}`, false},
		{`{"type":"event","proc":1} `, false},
		{`{ "type":"event"}`, false},
		{`{"type":"event"}{}`, false},
		{`{"proc":1}`, false},
		{`{"type":"event",}`, false},
		{`{"type":"event"`, false},
		{``, false},
	}
	for _, c := range cases {
		f, ok := scanCanonical([]byte(c.line))
		if ok != c.take {
			t.Errorf("scanCanonical(%s) took=%v, want %v", c.line, ok, c.take)
			continue
		}
		if !ok {
			continue
		}
		strict, err := decodeStrict([]byte(c.line))
		if err != nil || !reflect.DeepEqual(f, strict) {
			t.Errorf("scanCanonical(%s) = %#v; strict decode = %#v, %v", c.line, f, strict, err)
		}
	}
}

// randFrame draws an init or event frame over names and values chosen
// to exercise the encoder's decline rules: escapes, HTML characters,
// non-ASCII, integer extremes, and occasionally a field an init/event
// frame never carries.
func randFrame(r *rand.Rand) ClientFrame {
	names := []string{"", "x", "y", "crit", "a_b", "Z9", "k-1", "a<b", "q\"", `back\`, "tab\t", "é", "\xff", "\u2028", "a&b", "sp ace"}
	ints := []int{0, 1, -1, 7, 42, -300, math.MaxInt, math.MinInt, math.MaxInt32 + 1}
	str := func() string { return names[r.Intn(len(names))] }
	num := func() int { return ints[r.Intn(len(ints))] }
	f := ClientFrame{Type: FrameEvent}
	if r.Intn(3) == 0 {
		f.Type = FrameInit
		f.Var = str()
		f.Value = num()
	} else {
		f.Kind = []string{"", "internal", "send", "receive", "recv", "é"}[r.Intn(6)]
		f.Msg = num()
	}
	f.Proc = num()
	if r.Intn(2) == 0 {
		f.Seq = int64(num())
	}
	switch r.Intn(4) {
	case 0:
	case 1:
		f.Sets = map[string]int{}
	default:
		f.Sets = map[string]int{}
		for i, n := 0, 1+r.Intn(12); i < n; i++ {
			f.Sets[str()] = num()
		}
	}
	switch r.Intn(20) {
	case 0:
		f.Type = []string{FrameHello, FrameBye, FrameBatch, "Event"}[r.Intn(4)]
	case 1:
		f.Session = "k"
	case 2:
		f.ID = 3
	case 3:
		f.Batch = &pir.Batch{}
	case 4:
		f.Resumable = true
	}
	return f
}

// TestAppendClientFrameMatchesMarshal is the encoder's property test:
// on random init/event frames AppendClientFrame either writes exactly
// json.Marshal(f) plus a newline, or declines and leaves dst alone. A
// line it writes is canonical — the decoder's fast path takes it back to
// the same frame — and a frame of plain ASCII names is never declined.
func TestAppendClientFrameMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	prefix := []byte("prefix")
	var written, declined int
	for i := 0; i < 20000; i++ {
		f := randFrame(r)
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got, ok := AppendClientFrame(append([]byte(nil), prefix...), f)
		if !ok {
			declined++
			if string(got) != string(prefix) {
				t.Fatalf("declined %#v but changed dst to %q", f, got)
			}
			if canonicalFrame(f) {
				t.Fatalf("declined the plain frame %#v", f)
			}
			continue
		}
		written++
		if line := got[len(prefix):]; string(line) != string(want) {
			t.Fatalf("AppendClientFrame(%#v)\n got  %s want %s", f, line, want)
		}
		back, ok := scanCanonical(want[:len(want)-1])
		if !ok {
			t.Fatalf("scanner refused the encoder's line %s", want)
		}
		if len(f.Sets) == 0 {
			f.Sets = nil // omitempty: an empty map is not on the wire
		}
		if !reflect.DeepEqual(back, f) {
			t.Fatalf("round trip of %s:\n got  %#v\n want %#v", want, back, f)
		}
	}
	if written < 1000 || declined < 1000 {
		t.Fatalf("generator too lopsided: %d written, %d declined", written, declined)
	}
}

// canonicalFrame reports whether f is an init/event frame carrying only
// canonical fields with plain-ASCII strings — the frames the encoder
// must write.
func canonicalFrame(f ClientFrame) bool {
	if (f.Type != FrameInit && f.Type != FrameEvent) || f.Session != "" || f.ID != 0 || f.Batch != nil || f.Resumable {
		return false
	}
	if !plainString(f.Var) || !plainString(f.Kind) {
		return false
	}
	for k := range f.Sets {
		if !plainString(k) {
			return false
		}
	}
	return true
}

var setsSink map[string]int

// TestCodecAllocs pins the hot path's allocation budget: encoding an
// event into a reused buffer allocates nothing, and decoding a canonical
// event line allocates no more than materializing its Sets map does.
func TestCodecAllocs(t *testing.T) {
	f := ClientFrame{Type: FrameEvent, Seq: 12, Proc: 2, Kind: "send", Msg: 9, Sets: map[string]int{"x": 1, "crit": -1}}
	buf, ok := AppendClientFrame(nil, f)
	if !ok {
		t.Fatal("declined a canonical event")
	}
	line := append([]byte(nil), buf[:len(buf)-1]...)
	if a := testing.AllocsPerRun(100, func() { buf, _ = AppendClientFrame(buf[:0], f) }); a != 0 {
		t.Errorf("encoding an event allocates %.0f times, want 0", a)
	}

	keys := [][]byte{[]byte("x"), []byte("crit")}
	setsOnly := testing.AllocsPerRun(100, func() {
		m := make(map[string]int)
		for _, k := range keys {
			m[string(k)] = 1
		}
		setsSink = m
	})
	var got ClientFrame
	decode := testing.AllocsPerRun(100, func() { got, _ = DecodeClientFrame(line) })
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("decoded %#v, want %#v", got, f)
	}
	if decode > setsOnly {
		t.Errorf("decoding a canonical event allocates %.0f times, want at most the Sets map's %.0f", decode, setsOnly)
	}
}
