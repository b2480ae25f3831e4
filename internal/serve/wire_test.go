package serve

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

// sessionCodecs maps every session message decoder to a decode -> encode
// round trip over its payload.
var sessionCodecs = map[string]func([]byte) ([]byte, error){
	"welcome": func(p []byte) ([]byte, error) {
		m, err := decodeWelcome(p)
		return encodeWelcome(m), err
	},
	"reject": func(p []byte) ([]byte, error) {
		re, err := decodeReject(p)
		if err != nil {
			return nil, err
		}
		return encodeReject(re.Code, re.Reason), nil
	},
	"ingest": func(p []byte) ([]byte, error) {
		cseq, b, err := decodeIngest(p)
		return encodeIngest(cseq, b), err
	},
	"hello": func(p []byte) ([]byte, error) {
		role, id, err := decodeHello(p)
		return encodeHello(role, id), err
	},
	"value": func(p []byte) ([]byte, error) {
		v, err := decodeValue(p)
		return encodeValue(v), err
	},
	"vvlist": func(p []byte) ([]byte, error) {
		m, err := decodeVVList(p, "vvlist")
		return encodeVVList(m), err
	},
	"stat": func(p []byte) ([]byte, error) {
		s, err := decodeStat(p)
		return encodeStat(s), err
	},
}

// goldenSession is one fixed instance of every session message, with the
// bytes it encoded to before ingest was rebuilt on the wal batch section.
func goldenSession() []struct {
	name, codec string
	got         []byte
	want        string
} {
	b := graph.Batch{
		{Edge: graph.Edge{Src: 1, Dst: 2, W: 3.5}},
		{Edge: graph.Edge{Src: 7, Dst: 0, W: 0.25}, Del: true},
	}
	return []struct {
		name, codec string
		got         []byte
		want        string
	}{
		{"welcome", "welcome", encodeWelcome(welcome{AlgName: "SSSP", NumV: 4, Seq: 9}), "0400000053535350040000000900000000000000"},
		{"reject", "reject", encodeReject(RejectOverloaded, "queue full"), "010a00000071756575652066756c6c"},
		{"ingest", "ingest", encodeIngest(7, b),
			"07000000000000000200000001000000020000000000000000000c40000700000000000000000000000000d03f01"},
		{"anonymous hello", "hello", encodeHello(RoleQuery, ""), "02"},
		{"hello with identity", "hello", encodeHello(RoleIngest, "client-a"), "0108000000636c69656e742d61"},
		{"value", "value", encodeValue(value{Seq: 9, V: 2, Val: 3.5, Parent: 1}), "0900000000000000020000000000000000000c4001000000"},
		{"vvlist", "vvlist", encodeVVList(vvList{Seq: 9, Recs: []engine.VertexValue{{V: 3, Val: 4}, {V: 2, Val: 3.5}}}),
			"090000000000000002000000030000000000000000001040020000000000000000000c40"},
		{"stat", "stat", encodeStat(Stat{AppliedSeq: 9, LoggedSeq: 11, Sessions: 3}), "09000000000000000b0000000000000003000000"},
	}
}

// TestSessionGoldenBytes pins every session message's bytes and checks each
// decodes back to an identical re-encoding.
func TestSessionGoldenBytes(t *testing.T) {
	for _, c := range goldenSession() {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, c.want)
		}
		if again, err := sessionCodecs[c.codec](c.got); err != nil || !bytes.Equal(again, c.got) {
			t.Errorf("%s: round trip %x, %v", c.name, again, err)
		}
	}
}

// FuzzDecodeSession feeds the same bytes to every session message decoder.
// None may panic, and whatever one accepts must decode -> encode -> decode
// to the same value (compared as its canonical re-encoding).
func FuzzDecodeSession(f *testing.F) {
	for _, c := range goldenSession() {
		f.Add(c.got)
		f.Add(c.got[:len(c.got)/2])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		for name, codec := range sessionCodecs {
			enc, err := codec(p)
			if err != nil {
				continue
			}
			if again, err := codec(enc); err != nil || !bytes.Equal(again, enc) {
				t.Fatalf("%s: decode -> encode -> decode changed the value (%v)", name, err)
			}
		}
	})
}
