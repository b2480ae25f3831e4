package dist

// Wire protocol of the real-socket cluster runtime (DESIGN.md §4.10). Every
// frame on a connection uses the shared wal codec framing —
// [len][crc32c][kind][payload] — so the network detects truncation and bit
// corruption exactly the way the on-disk artifacts do. Application
// messages ride in wkMsg frames over one TCP connection per worker
// incarnation (link.go); heartbeats and the connection-level hello are
// control frames.
//
// Payloads are flat little-endian records composed from the wal.Enc/wal.Dec
// cursors and their batch, edge and vector sections — the same code the wal
// payload codecs use — so every length and range is validated before
// allocation, and a malformed payload yields an error, never a panic or
// garbage.

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/wal"
)

// Socket frame kinds. Distinct from the wal on-disk kinds so a stray file
// read as a stream (or vice versa) fails loudly on kind, not just on
// payload shape.
const (
	wkMsg   byte = 0x10 // [1B msgType][body]
	wkPing  byte = 0x12 // heartbeat, both ways; empty
	wkHello byte = 0x14 // connection handshake (worker -> coordinator)
)

// Message types carried inside wkMsg frames.
const (
	mtWelcome      byte = 1  // coordinator -> worker: join accepted, state transfer
	mtBatchStart   byte = 2  // coordinator -> worker: process one batch
	mtData         byte = 3  // both ways: routed candidate/shadow records
	mtIdle         byte = 4  // worker -> coordinator: drained, counters attached
	mtCollect      byte = 5  // coordinator -> worker: report the boundary state
	mtCollectReply byte = 6  // worker -> coordinator: converged values and parents
	mtBye          byte = 10 // either way: graceful leave / shutdown
	mtJoinReject   byte = 11 // coordinator -> worker: join refused
)

// wireHello is the connection-level handshake a worker sends first on its
// one connection (initial join or post-restart rejoin: every hello is a
// join).
type wireHello struct {
	ID          int32  // worker id; -1 asks the coordinator to assign one
	Incarnation uint64 // changes on every process (re)start; names a superseded process
	StructSeq   uint64 // last batch applied to the worker's recovered graph
	HasBase     bool   // a base graph was recovered (ckpt + WAL replay succeeded)
}

func encodeHello(h wireHello) []byte {
	var e wal.Enc
	e.I32(h.ID)
	e.U64(h.Incarnation)
	e.U64(h.StructSeq)
	e.Bool(h.HasBase)
	return e.B
}

func decodeHello(p []byte) (wireHello, error) {
	d := wal.Dec{B: p}
	h := wireHello{ID: d.I32(), Incarnation: d.U64(), StructSeq: d.U64(), HasBase: d.U8() != 0}
	return h, d.Err("hello")
}

// --- application messages ---

// dataRecLen is one engine.Rec on the wire: a candidate aimed at a
// vertex's owner, or a shadow refresh the coordinator fans out to every
// other worker.
const dataRecLen = 4 + 4 + 8 + 1

// checkVertex refuses a vertex id at or past numV, or a parent outside
// [-1, numV): a CRC-valid frame can still name a vertex past the graph,
// and every receiver indexes by it.
func checkVertex(what string, v uint32, parent int32, numV int) error {
	if int(v) >= numV || parent < -1 || int(parent) >= numV {
		return fmt.Errorf("dist: %s: vertex %d / parent %d outside %d vertices", what, v, parent, numV)
	}
	return nil
}

// checkParents applies checkVertex to every entry of a parent array.
func checkParents(what string, parent []int32, numV int) error {
	for v, p := range parent {
		if err := checkVertex(what, uint32(v), p, numV); err != nil {
			return err
		}
	}
	return nil
}

// wireWelcome transfers everything a joining worker needs: identity, the
// algorithm, the checkpoint cadence, and either the full graph (fresh join)
// or the batch tail its recovered WAL is missing (rejoin), plus the
// authoritative boundary state. With neither (a caught-up rejoin, or a
// survivor at a re-run attempt) it carries the boundary state alone.
type wireWelcome struct {
	ID        int32
	AlgName   string
	Source    uint32
	NumV      uint32
	FlowCap   uint32
	CkptEvery uint32 // a worker checkpoints every boundary seq that is a multiple of it
	BatchSeq  uint64 // the seq the transferred structure is at
	Full      bool
	Edges     []graph.Edge // full mode: the entire current graph
	Catchup   []graph.Batch
	Vals      []float64
	Parent    []int32
}

func encodeWelcome(w wireWelcome) []byte {
	var e wal.Enc
	e.U8(mtWelcome)
	e.I32(w.ID)
	e.Str(w.AlgName)
	e.U32(w.Source)
	e.U32(w.NumV)
	e.U32(w.FlowCap)
	e.U32(w.CkptEvery)
	e.U64(w.BatchSeq)
	e.Bool(w.Full)
	if w.Full {
		e.Edges(w.Edges)
	} else {
		e.U32(uint32(len(w.Catchup)))
		for _, b := range w.Catchup {
			e.Batch(b)
		}
	}
	e.U32(uint32(len(w.Vals)))
	e.F64s(w.Vals)
	e.U32(uint32(len(w.Parent)))
	e.I32s(w.Parent)
	return e.B
}

func decodeWelcome(p []byte) (wireWelcome, error) {
	d := wal.Dec{B: p}
	var w wireWelcome
	w.ID = d.I32()
	w.AlgName = d.Str()
	w.Source = d.U32()
	w.NumV = d.U32()
	w.FlowCap = d.U32()
	w.CkptEvery = d.U32()
	w.BatchSeq = d.U64()
	w.Full = d.U8() != 0
	if w.Full {
		w.Edges = d.Edges(int(w.NumV))
	} else {
		n := d.Count(4) // each batch is at least a 4-byte count
		w.Catchup = make([]graph.Batch, 0, n)
		for i := 0; i < n && !d.Bad(); i++ {
			w.Catchup = append(w.Catchup, d.Batch())
		}
	}
	w.Vals = d.F64s(d.Count(8))
	w.Parent = d.I32s(d.Count(4))
	if err := d.Err("welcome"); err != nil {
		return w, err
	}
	if len(w.Vals) != int(w.NumV) || len(w.Parent) != int(w.NumV) {
		return w, fmt.Errorf("dist: welcome: state arrays (%d/%d) disagree with %d vertices", len(w.Vals), len(w.Parent), w.NumV)
	}
	return w, checkParents("welcome", w.Parent, int(w.NumV))
}

// wireBatchStart launches (or after a recovery, relaunches) one batch: the
// applied update list and the flow-worker table for this attempt. Each
// worker derives the trim set from its own key forest. A worker whose
// structure is already at Seq is re-running it from the state the welcome
// just before it restored.
type wireBatchStart struct {
	Seq     uint64
	Epoch   uint64
	Applied graph.Batch // post-symmetrize updates that actually changed the graph
	Assign  []int32     // flow -> worker id (length == numFlows, the validation handle)
}

func encodeBatchStart(m wireBatchStart) []byte {
	var e wal.Enc
	e.U8(mtBatchStart)
	e.U64(m.Seq)
	e.U64(m.Epoch)
	e.Batch(m.Applied)
	e.U32(uint32(len(m.Assign)))
	e.I32s(m.Assign)
	return e.B
}

func decodeBatchStart(p []byte) (wireBatchStart, error) {
	d := wal.Dec{B: p}
	m := wireBatchStart{Seq: d.U64(), Epoch: d.U64(), Applied: d.Batch()}
	m.Assign = d.I32s(d.Count(4))
	return m, d.Err("batch-start")
}

// wireData is a bundle of routed records tagged with the attempt epoch so
// stale in-flight traffic from an aborted attempt is discarded on arrival.
type wireData struct {
	Epoch uint64
	Recs  []engine.Rec
}

func encodeData(m wireData) []byte {
	var e wal.Enc
	e.U8(mtData)
	e.U64(m.Epoch)
	e.U32(uint32(len(m.Recs)))
	for _, r := range m.Recs {
		e.U32(r.V)
		e.I32(r.Parent)
		e.F64(r.Val)
		e.Bool(r.Shadow)
	}
	return e.B
}

// decodeData decodes a bundle for a graph of numV vertices.
func decodeData(p []byte, numV int) (wireData, error) {
	d := wal.Dec{B: p}
	m := wireData{Epoch: d.U64()}
	m.Recs = make([]engine.Rec, d.Count(dataRecLen))
	for i := range m.Recs {
		m.Recs[i] = engine.Rec{V: d.U32(), Parent: d.I32(), Val: d.F64(), Shadow: d.U8() != 0}
	}
	if err := d.Err("data"); err != nil {
		return m, err
	}
	for _, r := range m.Recs {
		if err := checkVertex("data", r.V, r.Parent, numV); err != nil {
			return m, err
		}
	}
	return m, nil
}

// wireIdle is a worker's quiescence report: it has drained its inbox and
// worklist, having consumed Processed routed records and uploaded Uploaded.
type wireIdle struct {
	Epoch     uint64
	Seq       uint64
	Processed uint64
	Uploaded  uint64
}

func encodeIdle(m wireIdle) []byte {
	var e wal.Enc
	e.U8(mtIdle)
	e.U64(m.Epoch)
	e.U64(m.Seq)
	e.U64(m.Processed)
	e.U64(m.Uploaded)
	return e.B
}

func decodeIdle(p []byte) (wireIdle, error) {
	d := wal.Dec{B: p}
	m := wireIdle{Epoch: d.U64(), Seq: d.U64(), Processed: d.U64(), Uploaded: d.U64()}
	return m, d.Err("idle")
}

// wireCollect asks a worker for its replica of the boundary state.
type wireCollect struct {
	Epoch uint64
	Seq   uint64
}

func encodeCollect(m wireCollect) []byte {
	var e wal.Enc
	e.U8(mtCollect)
	e.U64(m.Epoch)
	e.U64(m.Seq)
	return e.B
}

func decodeCollect(p []byte) (wireCollect, error) {
	d := wal.Dec{B: p}
	m := wireCollect{Epoch: d.U64(), Seq: d.U64()}
	return m, d.Err("collect")
}

// wireCollectReply is a worker's converged replica at a quiescent boundary,
// in the welcome's shape: one value and one parent per vertex.
type wireCollectReply struct {
	Epoch  uint64
	Seq    uint64
	Vals   []float64
	Parent []int32
}

func encodeCollectReply(m wireCollectReply) []byte {
	var e wal.Enc
	e.U8(mtCollectReply)
	e.U64(m.Epoch)
	e.U64(m.Seq)
	e.U32(uint32(len(m.Vals)))
	e.F64s(m.Vals)
	e.U32(uint32(len(m.Parent)))
	e.I32s(m.Parent)
	return e.B
}

func decodeCollectReply(p []byte) (wireCollectReply, error) {
	d := wal.Dec{B: p}
	m := wireCollectReply{Epoch: d.U64(), Seq: d.U64()}
	m.Vals = d.F64s(d.Count(8))
	m.Parent = d.I32s(d.Count(4))
	if err := d.Err("collect-reply"); err != nil {
		return m, err
	}
	return m, checkParents("collect-reply", m.Parent, len(m.Parent))
}

// encodeBye / encodeJoinReject carry a human-readable reason.
func encodeReason(mt byte, reason string) []byte {
	var e wal.Enc
	e.U8(mt)
	e.Str(reason)
	return e.B
}

func decodeReason(p []byte) (string, error) {
	d := wal.Dec{B: p}
	s := d.Str()
	return s, d.Err("reason")
}
