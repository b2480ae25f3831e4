package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/rng"
)

// --- golden bytes ---

// goldenBatch, goldenGraph, goldenVals and goldenParent are the fixed
// instances the golden table encodes; internal/dist's and internal/serve's
// golden tables repeat them.
var goldenBatch = graph.Batch{
	{Edge: graph.Edge{Src: 1, Dst: 2, W: 3.5}},
	{Edge: graph.Edge{Src: 7, Dst: 0, W: 0.25}, Del: true},
}

func goldenGraph() *graph.Streaming {
	return graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 2, W: 2.5}, {Src: 0, Dst: 3, W: 4}})
}

var (
	goldenVals   = []float64{0, 1, 3.5, 4}
	goldenParent = []int32{-1, 0, 1, 0}
)

// TestGoldenBytes pins one fixed instance of every durable format to the
// bytes the format had before the payload codecs were rebuilt on the shared
// cursor sections: a log frame of each batch kind and a snapshot file of
// each state kind (plus one carrying a dedup frame). A worker snapshot is
// byte-equal to the worker checkpoint file it replaced.
func TestGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Policy: FsyncOff}
	g := goldenGraph()
	file := func(seq uint64, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, SnapName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	acc := &engine.AccState{Dim: 1, State: []float64{0.25, 0.5, 0.125, 1},
		Agg: []float64{0, 0.5, 0.25, 0.75}, LastUnit: []float64{1, 0, 0.5, 2}}
	dt := NewDedupTable(4)
	dt.Record("client-a", 1, 3)
	dt.Record("client-a", 2, 5)
	dt.Record("client-b", 9, 4)
	dt.Record("client-b", 10, 9) // past the snapshot: not persisted
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"batch frame", AppendFrame(nil, KindBatch, EncodeBatch(nil, 42, goldenBatch)),
			"2f000000902dae22012a000000000000000200000001000000020000000000000000000c40000700000000000000000000000000d03f01"},
		{"tagged batch frame", AppendFrame(nil, KindBatchTagged, EncodeTaggedBatch(nil, 43, "client-a", 7, goldenBatch)),
			"43000000a1a8f4fd0808000000636c69656e742d6107000000000000002b000000000000000200000001000000020000000000000000000c40000700000000000000000000000000d03f01"},
		{"selective snapshot", file(5, WriteSnapshot(opts, 5, g, goldenVals, goldenParent)),
			"0d0000002d606b520205000000000000000400000035000000fcc818f303030000000000000001000000000000000000f03f0000000003000000000000000000104001000000020000000000000000000440390000002509cc410404000000040000000000000000000000000000000000f03f0000000000000c400000000000001040ffffffff00000000010000000000000009000000928335f9050500000000000000"},
		{"local snapshot", file(6, WriteSnapshot(opts, 6, g, goldenVals, nil)),
			"0d0000007d1cf9010206000000000000000400000035000000fcc818f303030000000000000001000000000000000000f03f00000000030000000000000000001040010000000200000000000000000004402900000057a903590404000000000000000000000000000000000000000000f03f0000000000000c40000000000000104009000000fb047122050600000000000000"},
		{"accumulative snapshot", file(7, WriteAccSnapshot(opts, 7, g, acc)),
			"0d0000004dc888300207000000000000000400000035000000fcc818f303030000000000000001000000000000000000f03f00000000030000000000000000001040010000000200000000000000000004406900000032030614070100000004000000000000000000d03f000000000000e03f000000000000c03f000000000000f03f0000000000000000000000000000e03f000000000000d03f000000000000e83f000000000000f03f0000000000000000000000000000e03f000000000000004009000000dc794d6b050700000000000000"},
		{"dedup snapshot", file(8, writeSnapshot(opts, 8, g, KindSnapState, EncodeState(nil, goldenVals, goldenParent), dt)),
			"0d000000ac33bf280208000000000000000400000035000000fcc818f303030000000000000001000000000000000000f03f0000000003000000000000000000104001000000020000000000000000000440390000002509cc410404000000040000000000000000000000000000000000f03f0000000000000c400000000000001040ffffffff00000000010000000000000059000000acf1cdf709040000000200000008000000636c69656e742d6102000000010000000000000003000000000000000200000000000000050000000000000008000000636c69656e742d6201000000090000000000000004000000000000000900000002782fd3050800000000000000"},
		{"worker snapshot", file(9, WriteWorkerSnapshot(opts, 9, g, goldenVals, goldenParent)),
			"0d0000009ce7ce190209000000000000000400000035000000fcc818f303030000000000000001000000000000000000f03f000000000300000000000000000010400100000002000000000000000000044041000000635479bd06090000000000000004000000040000000000000000000000000000000000f03f0000000000000c400000000000001040ffffffff000000000100000000000000090000002505139a050900000000000000"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}

// --- snapshot hardening ---

// snapFixture is one real snapshot file of one state kind, at fixtureSeq.
type snapFixture struct {
	name string
	kind byte
	numV int
	orig []byte
}

const fixtureSeq = 6

// snapFixtures writes a selective, an accumulative and a worker snapshot of
// the same graph.
func snapFixtures(t testing.TB) []snapFixture {
	t.Helper()
	w := testWorkload(909, 64, 0, 0)
	g := graph.FromEdges(w.NumV, w.Initial)
	vals, parent := algo.SolveSelective(g, algo.SSSP{Src: 0})
	n := g.NumVertices()
	acc := &engine.AccState{Dim: 1, State: vals, Agg: make([]float64, n), LastUnit: make([]float64, n)}
	fxs := []struct {
		name  string
		kind  byte
		write func(opts Options) error
	}{
		{"selective", KindSnapState, func(o Options) error { return WriteSnapshot(o, fixtureSeq, g, vals, parent) }},
		{"accumulative", KindSnapAccState, func(o Options) error { return WriteAccSnapshot(o, fixtureSeq, g, acc) }},
		{"worker", KindDistCheckpoint, func(o Options) error { return WriteWorkerSnapshot(o, fixtureSeq, g, vals, parent) }},
	}
	var out []snapFixture
	for _, fx := range fxs {
		dir := t.TempDir()
		if err := fx.write(Options{Dir: dir, Policy: FsyncOff}); err != nil {
			t.Fatal(err)
		}
		orig, err := os.ReadFile(filepath.Join(dir, SnapName(fixtureSeq)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, snapFixture{fx.name, fx.kind, n, orig})
	}
	return out
}

// snapCorpus is the damage a snapshot file can arrive with: a spread of
// truncation points, 200 seeded single-bit flips, bytes after the footer, a
// second footer, and a header declaring one vertex more than the state
// frame holds.
func snapCorpus(t testing.TB, orig []byte, numV int) map[string][]byte {
	t.Helper()
	corpus := map[string][]byte{}
	for cut := 0; cut < len(orig); cut += 1 + len(orig)/199 {
		corpus[fmt.Sprintf("truncated at %d/%d", cut, len(orig))] = orig[:cut]
	}
	r := rng.New(4242)
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), orig...)
		mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
		corpus[fmt.Sprintf("bit flip %d", i)] = mut
	}
	corpus["trailing bytes"] = append(append([]byte(nil), orig...), 0xde, 0xad)

	// Re-frame the same edges and state under a header that claims numV+1.
	f := bytes.NewReader(orig)
	var kinds []byte
	var frames [][]byte
	for {
		kind, payload, err := ReadFrame(f)
		if err != nil {
			break
		}
		kinds, frames = append(kinds, kind), append(frames, payload)
	}
	if len(frames) != 4 {
		t.Fatalf("fixture has %d frames, want 4", len(frames))
	}
	hdr := append([]byte(nil), frames[0]...)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(numV+1))
	mis := AppendFrame(nil, KindSnapHeader, hdr)
	for i := 1; i < 4; i++ {
		mis = AppendFrame(mis, kinds[i], frames[i])
	}
	corpus["vertex-count mismatch"] = mis
	corpus["second footer"] = AppendFrame(append([]byte(nil), orig...), KindSnapFooter, frames[3])
	return corpus
}

// TestSnapshotRejectsCorruption holds the snapshot reader every recovery
// goes through — engine and worker alike — to the hardening bar: every
// damaged file is an error, never a panic or silently loaded garbage; a
// file under another seq's name does not load (retention and log truncation
// key on the name); the loader falls back past a damaged newest snapshot,
// reports a directory with nothing intact as an error, and refuses a
// snapshot written by another family.
func TestSnapshotRejectsCorruption(t *testing.T) {
	kinds := []byte{KindSnapState, KindSnapAccState, KindDistCheckpoint}
	for _, fx := range snapFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			const seq = fixtureSeq
			dir := t.TempDir()
			path := filepath.Join(dir, SnapName(seq))
			write := func(p string, b []byte) {
				t.Helper()
				if err := os.WriteFile(p, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			write(path, fx.orig)
			if sd, err := ReadSnapshot(path); err != nil || sd.Seq != seq || sd.NumV != fx.numV || sd.Kind != fx.kind {
				t.Fatalf("pristine snapshot: %+v, %v", sd, err)
			}
			for name, mut := range snapCorpus(t, fx.orig, fx.numV) {
				write(path, mut)
				if _, err := ReadSnapshot(path); err == nil {
					t.Fatalf("%s accepted", name)
				}
			}
			// Intact bytes under another seq's name.
			write(path, fx.orig)
			renamed := filepath.Join(dir, SnapName(seq+2))
			write(renamed, fx.orig)
			if _, err := ReadSnapshot(renamed); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("snapshot for seq %d accepted under the name of seq %d (err %v)", seq, seq+2, err)
			}
			// The misnamed file is the newest candidate: the loader skips it.
			if sd, err := LoadSnapshot(dir, fx.kind); err != nil || sd.Seq != seq {
				t.Fatalf("fallback past a damaged newest snapshot: %+v, %v", sd, err)
			}
			// Another family's loader refuses the directory: the worker
			// loader an engine snapshot, the engine families a worker's.
			for _, k := range kinds {
				if _, err := LoadSnapshot(dir, k); k != fx.kind && err == nil {
					t.Fatalf("kind %d loader accepted a kind %d snapshot", k, fx.kind)
				}
			}
			families := map[string]Family{
				"selective":    SelectiveFamily(algo.SSSP{Src: 0}),
				"local":        LocalFamily(algo.KCore{}),
				"accumulative": AccumulativeFamily(algo.NewPageRank(fx.numV)),
			}
			for name, fam := range families {
				if fam.kind == fx.kind {
					continue
				}
				dc := DurableConfig{Wal: Options{Dir: dir, Policy: FsyncOff}}
				if _, _, err := Recover(fam, engine.Config{}, dc); err == nil {
					t.Fatalf("%s family recovered from a kind %d snapshot", name, fx.kind)
				}
			}
			// With every candidate damaged the loader reports it instead of
			// pretending the directory is fresh.
			write(path, append(append([]byte(nil), fx.orig...), 0))
			if sd, err := LoadSnapshot(dir, fx.kind); err == nil || errors.Is(err, ErrNoSnapshot) {
				t.Fatalf("all snapshots damaged, loader returned %+v, %v", sd, err)
			}
		})
	}
}

// --- fuzz targets ---

// stateOf re-encodes a decoded snapshot's state frame payload.
func stateOf(sd *SnapshotData) []byte {
	switch sd.Kind {
	case KindSnapAccState:
		return EncodeAccState(nil, sd.NumV, sd.Acc)
	case KindDistCheckpoint:
		return EncodeState(binary.LittleEndian.AppendUint64(nil, sd.Seq), sd.Vals, sd.Parent)
	}
	return EncodeState(nil, sd.Vals, sd.Parent)
}

// FuzzReadSnapshot: arbitrary bytes under a snapshot's name never panic the
// reader, and whatever it accepts re-encodes to a file that reads back to
// the same value. Seeded with a snapshot of each state kind and its damage
// corpus.
func FuzzReadSnapshot(f *testing.F) {
	for _, fx := range snapFixtures(f) {
		f.Add(fx.orig)
		for _, mut := range snapCorpus(f, fx.orig, fx.numV) {
			f.Add(mut)
		}
	}
	dir, encDir := f.TempDir(), f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		sd, err := readSnapshotBytes(dir, fixtureSeq, data)
		if err != nil {
			return
		}
		// The re-encoding goes through the one snapshot writer, over a graph
		// built from the decoded edges (which canonicalizes their order).
		reencode := func(sd *SnapshotData) []byte {
			g := graph.FromEdges(sd.NumV, sd.Edges)
			if err := writeSnapshot(Options{Dir: encDir, Policy: FsyncOff}, sd.Seq, g, sd.Kind, stateOf(sd), sd.Dedup); err != nil {
				t.Fatal(err)
			}
			out, err := os.ReadFile(filepath.Join(encDir, SnapName(sd.Seq)))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		once := reencode(sd)
		sd2, err := readSnapshotBytes(dir, fixtureSeq, once)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not read back: %v", err)
		}
		if !bytes.Equal(reencode(sd2), once) {
			t.Fatal("snapshot decode -> encode -> decode changed the value")
		}
	})
}

// readSnapshotBytes reads data as the snapshot file for seq in dir. The
// file is overwritten per call: a fuzz target never runs in parallel with
// itself.
func readSnapshotBytes(dir string, seq uint64, data []byte) (*SnapshotData, error) {
	path := filepath.Join(dir, SnapName(seq))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return ReadSnapshot(path)
}

// FuzzDecodePayloads feeds the same bytes to every WAL and snapshot payload
// decoder. None may panic, and whatever one accepts must decode -> encode ->
// decode to the same value (compared as its canonical re-encoding).
func FuzzDecodePayloads(f *testing.F) {
	dt := NewDedupTable(8)
	dt.Record("client-a", 3, 11)
	dt.Record("client-b", 1, 12)
	seeds := [][]byte{
		EncodeBatch(nil, 42, goldenBatch),
		EncodeTaggedBatch(nil, 43, "client-a", 7, goldenBatch),
		EncodeState(nil, goldenVals, goldenParent),
		EncodeState(nil, goldenVals, nil),
		EncodeAccState(nil, 2, &engine.AccState{Dim: 2, State: []float64{1, 2, 3, 4}, Agg: make([]float64, 4), LastUnit: []float64{0, 0, 1, math.Inf(1)}}),
		dt.Encode(nil, math.MaxUint64),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		// stable requires encode(decode(enc)) == enc for the first
		// re-encoding enc of an accepted input.
		stable := func(what string, enc []byte, reencode func([]byte) ([]byte, error)) {
			again, err := reencode(enc)
			if err != nil {
				t.Fatalf("%s: re-encoding does not decode: %v", what, err)
			}
			if !bytes.Equal(again, enc) {
				t.Fatalf("%s: decode -> encode -> decode changed the value", what)
			}
		}
		batch := func(p []byte) ([]byte, error) {
			seq, b, err := DecodeBatch(p)
			return EncodeBatch(nil, seq, b), err
		}
		if enc, err := batch(p); err == nil {
			stable("batch", enc, batch)
		}
		tagged := func(p []byte) ([]byte, error) {
			seq, b, id, cseq, err := DecodeTaggedBatch(p)
			return EncodeTaggedBatch(nil, seq, id, cseq, b), err
		}
		if enc, err := tagged(p); err == nil {
			stable("tagged batch", enc, tagged)
		}
		// The state decoders check the counts the header declares against
		// the snapshot header's; take them from the payload itself so
		// well-formed inputs can pass.
		if len(p) >= 8 {
			nv, np := int(binary.LittleEndian.Uint32(p)), int(binary.LittleEndian.Uint32(p[4:]))
			numV := np
			if np == 0 {
				numV = nv
			}
			state := func(p []byte) ([]byte, error) {
				vals, parent, err := DecodeState(p, nv, numV)
				return EncodeState(nil, vals, parent), err
			}
			if enc, err := state(p); err == nil {
				stable("state", enc, state)
			}
			acc := func(p []byte) ([]byte, error) {
				st, err := DecodeAccState(p, np)
				if err != nil {
					return nil, err
				}
				return EncodeAccState(nil, np, st), nil
			}
			if enc, err := acc(p); err == nil {
				stable("acc state", enc, acc)
			}
		}
		dedup := func(p []byte) ([]byte, error) {
			dt, err := DecodeDedupTable(p)
			if err != nil {
				return nil, err
			}
			return dt.Encode(nil, math.MaxUint64), nil
		}
		if enc, err := dedup(p); err == nil {
			stable("dedup table", enc, dedup)
		}
	})
}
