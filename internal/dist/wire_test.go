package dist

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

// wireCodecs maps every message decoder to a decode -> encode round trip
// over its payload (the message-type byte the link strips is not part of
// it, so it is cut from the re-encoding too).
var wireCodecs = map[string]func([]byte) ([]byte, error){
	"hello": func(p []byte) ([]byte, error) {
		m, err := decodeHello(p)
		return encodeHello(m), err
	},
	"welcome": func(p []byte) ([]byte, error) {
		m, err := decodeWelcome(p)
		return encodeWelcome(m)[1:], err
	},
	"batch-start": func(p []byte) ([]byte, error) {
		m, err := decodeBatchStart(p)
		return encodeBatchStart(m)[1:], err
	},
	"data": func(p []byte) ([]byte, error) {
		m, err := decodeData(p, 4) // the golden messages' vertex count
		return encodeData(m)[1:], err
	},
	"idle": func(p []byte) ([]byte, error) {
		m, err := decodeIdle(p)
		return encodeIdle(m)[1:], err
	},
	"collect": func(p []byte) ([]byte, error) {
		m, err := decodeCollect(p)
		return encodeCollect(m)[1:], err
	},
	"collect-reply": func(p []byte) ([]byte, error) {
		m, err := decodeCollectReply(p)
		return encodeCollectReply(m)[1:], err
	},
	"reason": func(p []byte) ([]byte, error) {
		s, err := decodeReason(p)
		return encodeReason(mtBye, s)[1:], err
	},
}

// goldenWire is one fixed instance of every cluster message, with the bytes
// it encodes to.
func goldenWire() []struct {
	name, codec string
	got         []byte
	want        string
} {
	b := graph.Batch{
		{Edge: graph.Edge{Src: 1, Dst: 2, W: 3.5}},
		{Edge: graph.Edge{Src: 7, Dst: 0, W: 0.25}, Del: true},
	}
	edges := []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 2.5}, {Src: 0, Dst: 3, W: 4}}
	vals := []float64{0, 1, 3.5, 4}
	parent := []int32{-1, 0, 1, 0}
	return []struct {
		name, codec string
		got         []byte
		want        string
	}{
		{"hello", "hello", encodeHello(wireHello{ID: 2, Incarnation: 0x1122334455667788, StructSeq: 12, HasBase: true}),
			"0200000088776655443322110c0000000000000001"},
		{"welcome (full)", "welcome", encodeWelcome(wireWelcome{ID: 1, AlgName: "SSSP", NumV: 4, FlowCap: 64, CkptEvery: 2,
			BatchSeq: 9, Full: true, Edges: edges, Vals: vals, Parent: parent}),
			"0101000000040000005353535000000000040000004000000002000000090000000000000001030000000000000001000000000000000000f03f0100000002000000000000000000044000000000030000000000000000001040040000000000000000000000000000000000f03f0000000000000c40000000000000104004000000ffffffff000000000100000000000000"},
		{"welcome (catchup)", "welcome", encodeWelcome(wireWelcome{ID: 1, AlgName: "SSSP", NumV: 4, FlowCap: 64, CkptEvery: 2,
			BatchSeq: 11, Catchup: []graph.Batch{b, nil}, Vals: vals, Parent: parent}),
			"01010000000400000053535350000000000400000040000000020000000b0000000000000000020000000200000001000000020000000000000000000c40000700000000000000000000000000d03f0100000000040000000000000000000000000000000000f03f0000000000000c40000000000000104004000000ffffffff000000000100000000000000"},
		{"batch-start", "batch-start", encodeBatchStart(wireBatchStart{Seq: 10, Epoch: 3, Applied: b, Assign: []int32{0, 1, 1}}),
			"020a0000000000000003000000000000000200000001000000020000000000000000000c40000700000000000000000000000000d03f0103000000000000000100000001000000"},
		{"data", "data", encodeData(wireData{Epoch: 3, Recs: []engine.Rec{{V: 2, Parent: 1, Val: 3.5}, {V: 3, Parent: -1, Val: 4, Shadow: true}}}),
			"0303000000000000000200000002000000010000000000000000000c400003000000ffffffff000000000000104001"},
		{"idle", "idle", encodeIdle(wireIdle{Epoch: 3, Seq: 10, Processed: 5, Uploaded: 7}),
			"0403000000000000000a0000000000000005000000000000000700000000000000"},
		{"collect", "collect", encodeCollect(wireCollect{Epoch: 3, Seq: 10}),
			"0503000000000000000a00000000000000"},
		{"collect-reply", "collect-reply", encodeCollectReply(wireCollectReply{Epoch: 3, Seq: 10, Vals: []float64{0, 1}, Parent: []int32{-1, 0}}),
			"0603000000000000000a00000000000000020000000000000000000000000000000000f03f02000000ffffffff00000000"},
		{"bye", "reason", encodeReason(mtBye, "worker shutting down"), "0a14000000776f726b6572207368757474696e6720646f776e"},
		{"join reject", "reason", encodeReason(mtJoinReject, "full"), "0b0400000066756c6c"},
	}
}

// payload strips the message-type byte every message but hello carries.
func payload(codec string, msg []byte) []byte {
	if codec == "hello" {
		return msg
	}
	return msg[1:]
}

// TestWireGoldenBytes pins every cluster message's bytes and checks each
// decodes back to an identical re-encoding.
func TestWireGoldenBytes(t *testing.T) {
	for _, c := range goldenWire() {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, c.want)
		}
		p := payload(c.codec, c.got)
		if again, err := wireCodecs[c.codec](p); err != nil || !bytes.Equal(again, p) {
			t.Errorf("%s: round trip %x, %v", c.name, again, err)
		}
	}
}

// TestWelcomeRejectsOutOfRangeEdge: a full-transfer welcome whose edge list
// names a vertex past NumV is malformed input from the network, refused by
// the decoder rather than handed to graph.FromEdges.
func TestWelcomeRejectsOutOfRangeEdge(t *testing.T) {
	w := wireWelcome{ID: 1, AlgName: "SSSP", NumV: 4, Full: true,
		Edges: []graph.Edge{{Src: 0, Dst: 4, W: 1}}, Vals: make([]float64, 4), Parent: make([]int32, 4)}
	if _, err := decodeWelcome(encodeWelcome(w)[1:]); err == nil {
		t.Fatal("welcome with edge 0->4 over 4 vertices accepted")
	}
}

// outOfRangeWire holds well-formed payloads that name a vertex outside the
// graph: a parent at or past NumV or below -1 in a welcome's or a collect
// reply's parent array, a data record's parent or vertex at the golden
// vertex count (4), and a welcome whose state arrays are shorter than NumV.
func outOfRangeWire() []struct {
	codec string
	p     []byte
} {
	vals := []float64{0, 1, 2, 3}
	welcome := func(parent []int32) []byte {
		return encodeWelcome(wireWelcome{ID: 1, AlgName: "SSSP", NumV: 4, Vals: vals[:len(parent)], Parent: parent})[1:]
	}
	data := func(r engine.Rec) []byte { return encodeData(wireData{Epoch: 3, Recs: []engine.Rec{r}})[1:] }
	return []struct {
		codec string
		p     []byte
	}{
		{"welcome", welcome([]int32{-1, 0, 4, 0})},
		{"welcome", welcome([]int32{-1, 0, -2, 0})},
		{"welcome", welcome([]int32{-1, 0, 1})},
		{"data", data(engine.Rec{V: 2, Parent: 4, Val: 1})},
		{"data", data(engine.Rec{V: 2, Parent: -2, Val: 1, Shadow: true})},
		{"data", data(engine.Rec{V: 4, Parent: 0, Val: 1})},
		{"collect-reply", encodeCollectReply(wireCollectReply{Epoch: 3, Seq: 10, Vals: vals[:2], Parent: []int32{-1, 2}})[1:]},
	}
}

// TestWireRejectsOutOfRangeVertex: a CRC-valid message naming a vertex
// outside the graph is refused by its decoder, as the disk path refuses a
// snapshot's, instead of panicking the receiver that indexes by it.
func TestWireRejectsOutOfRangeVertex(t *testing.T) {
	for i, c := range outOfRangeWire() {
		if _, err := wireCodecs[c.codec](c.p); err == nil {
			t.Errorf("case %d: the %s decoder accepted %x", i, c.codec, c.p)
		}
	}
}

// previousWire holds payloads of earlier wire formats: from before
// checkpoints moved to the workers, a hello with a checkpoint seq, a batch
// start with a re-run byte, a collect reply of (vertex, parent, value)
// records, and a checkpoint command; from before each worker trimmed its
// own key forest, a batch start carrying the coordinator's trim set. A
// peer still speaking one must be refused, not misread.
var previousWire = []struct{ codec, hex string }{
	{"hello", "0200000088776655443322110c000000000000000a0000000000000001"},
	{"batch-start", "0a000000000000000300000000000000010200000001000000020000000000000000000c40000700000000000000000000000000d03f0102000000020000000300000003000000000000000100000001000000"},
	{"batch-start", "0a0000000000000003000000000000000200000001000000020000000000000000000c40000700000000000000000000000000d03f0102000000020000000300000003000000000000000100000001000000"},
	{"collect-reply", "03000000000000000a000000000000000200000000000000ffffffff00000000000000000100000000000000000000000000f03f"},
	{"", "0a00000000000000"},
}

// TestWireRefusesPreviousFormat: every old-format payload is refused by the
// decoder of its message (and the checkpoint command, which has none now,
// by all of them).
func TestWireRefusesPreviousFormat(t *testing.T) {
	for _, c := range previousWire {
		p, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		for name, codec := range wireCodecs {
			if c.codec != "" && name != c.codec {
				continue
			}
			if _, err := codec(p); err == nil {
				t.Errorf("%s decoder accepted the old %q payload %s", name, c.codec, c.hex)
			}
		}
	}
}

// FuzzDecodeWire feeds the same bytes to every cluster message decoder. None
// may panic, and whatever one accepts must decode -> encode -> decode to the
// same value (compared as its canonical re-encoding).
func FuzzDecodeWire(f *testing.F) {
	for _, c := range goldenWire() {
		p := payload(c.codec, c.got)
		f.Add(p)
		f.Add(p[:len(p)/2])
	}
	for _, c := range previousWire {
		p, err := hex.DecodeString(c.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	for _, c := range outOfRangeWire() {
		f.Add(c.p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		for name, codec := range wireCodecs {
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
