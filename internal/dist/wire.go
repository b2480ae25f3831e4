package dist

// Wire protocol of the real-socket cluster runtime (DESIGN.md §4.10). Every
// frame on a connection uses the shared wal codec framing —
// [len][crc32c][kind][payload] — so the network detects truncation and bit
// corruption exactly the way the on-disk artifacts do. Sequenced
// application messages ride in wkMsg frames under the reliable link layer
// (link.go); acks, heartbeats, and the connection-level hello are
// unsequenced control frames.
//
// Payloads are flat little-endian records, hand-decoded with the same
// discipline as the wal payload codecs: every length and range is validated
// before allocation, and a malformed payload yields an error, never a panic
// or garbage.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
	"repro/internal/wal"
)

// Socket frame kinds. Distinct from the wal on-disk kinds so a stray file
// read as a stream (or vice versa) fails loudly on kind, not just on
// payload shape.
const (
	wkMsg   byte = 0x10 // [8B seq][1B msgType][body] — reliable, sequenced
	wkAck   byte = 0x11 // [8B cumulative ack = receiver's nextExpect]
	wkPing  byte = 0x12 // heartbeat probe
	wkPong  byte = 0x13 // heartbeat reply
	wkHello byte = 0x14 // connection handshake (worker -> coordinator)
)

// Message types carried inside wkMsg frames.
const (
	mtWelcome      byte = 1  // coordinator -> worker: join accepted, state transfer
	mtBatchStart   byte = 2  // coordinator -> worker: process one batch
	mtData         byte = 3  // both ways: routed candidate/shadow records
	mtIdle         byte = 4  // worker -> coordinator: drained, counters attached
	mtCollect      byte = 5  // coordinator -> worker: report owned state
	mtCollectReply byte = 6  // worker -> coordinator: converged (v, val, parent)
	mtCkptCmd      byte = 8  // coordinator -> worker: write a checkpoint at seq
	mtCkptDone     byte = 9  // worker -> coordinator: checkpoint committed
	mtBye          byte = 10 // either way: graceful leave / shutdown
	mtJoinReject   byte = 11 // coordinator -> worker: join refused
)

// wireHello is the connection-level handshake a worker sends first on every
// new connection (initial join, soft reconnect, and post-restart rejoin).
type wireHello struct {
	ID          int32  // worker id; -1 asks the coordinator to assign one
	Incarnation uint64 // changes on every process (re)start
	StructSeq   uint64 // last batch applied to the worker's recovered graph
	CkptSeq     uint64 // sequence of the newest intact local checkpoint
	HasBase     bool   // a base graph was recovered (ckpt + WAL replay succeeded)
}

func encodeHello(h wireHello) []byte {
	var b [29]byte
	binary.LittleEndian.PutUint32(b[0:4], uint32(h.ID))
	binary.LittleEndian.PutUint64(b[4:12], h.Incarnation)
	binary.LittleEndian.PutUint64(b[12:20], h.StructSeq)
	binary.LittleEndian.PutUint64(b[20:28], h.CkptSeq)
	if h.HasBase {
		b[28] = 1
	}
	return b[:]
}

func decodeHello(p []byte) (wireHello, error) {
	if len(p) != 29 {
		return wireHello{}, fmt.Errorf("%w: hello payload %d bytes", wal.ErrCorrupt, len(p))
	}
	return wireHello{
		ID:          int32(binary.LittleEndian.Uint32(p[0:4])),
		Incarnation: binary.LittleEndian.Uint64(p[4:12]),
		StructSeq:   binary.LittleEndian.Uint64(p[12:20]),
		CkptSeq:     binary.LittleEndian.Uint64(p[20:28]),
		HasBase:     p[28] != 0,
	}, nil
}

// --- compound sections ---
//
// The primitive append/read cursors live in the wal package (wal.Enc /
// wal.Dec) so the serving front-end's session protocol and this cluster
// protocol share one validation discipline.

const updateLen = 4 + 4 + 8 + 1

func encBatch(e *wal.Enc, b graph.Batch) {
	e.U32(uint32(len(b)))
	for _, u := range b {
		e.U32(u.Src)
		e.U32(u.Dst)
		e.F64(float64(u.W))
		e.Bool(u.Del)
	}
}

func decBatch(d *wal.Dec) graph.Batch {
	n := d.Count(updateLen)
	if n == 0 {
		return nil
	}
	b := make(graph.Batch, n)
	for i := range b {
		b[i].Src = d.U32()
		b[i].Dst = d.U32()
		b[i].W = graph.Weight(d.F64())
		b[i].Del = d.U8() != 0
	}
	return b
}

func encVals(e *wal.Enc, vals []float64) {
	e.U32(uint32(len(vals)))
	for _, v := range vals {
		e.F64(v)
	}
}

func decVals(d *wal.Dec) []float64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = d.F64()
	}
	return vals
}

func encI32s(e *wal.Enc, xs []int32) {
	e.U32(uint32(len(xs)))
	for _, x := range xs {
		e.I32(x)
	}
}

func decI32s(d *wal.Dec) []int32 {
	n := d.Count(4)
	if n == 0 {
		return nil
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = d.I32()
	}
	return xs
}

func encU32s(e *wal.Enc, xs []uint32) {
	e.U32(uint32(len(xs)))
	for _, x := range xs {
		e.U32(x)
	}
}

func decU32s(d *wal.Dec) []uint32 {
	n := d.Count(4)
	if n == 0 {
		return nil
	}
	xs := make([]uint32, n)
	for i := range xs {
		xs[i] = d.U32()
	}
	return xs
}

func encEdges(e *wal.Enc, edges []graph.Edge) {
	e.U32(uint32(len(edges)))
	for _, ed := range edges {
		e.U32(ed.Src)
		e.U32(ed.Dst)
		e.F64(float64(ed.W))
	}
}

func decEdges(d *wal.Dec) []graph.Edge {
	n := d.Count(16)
	if n == 0 {
		return nil
	}
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i].Src = d.U32()
		edges[i].Dst = d.U32()
		edges[i].W = graph.Weight(d.F64())
	}
	return edges
}

// --- application messages ---

// dataRec is one routed protocol record: a candidate aimed at a vertex's
// owner, or a shadow refresh the coordinator fans out to every other
// worker. Parent is the key edge that produced Val, so the receiver can
// report dependence for a vertex whose ownership later migrates to it.
type dataRec struct {
	V      uint32
	Parent int32
	Val    float64
	Shadow bool
}

const dataRecLen = 4 + 4 + 8 + 1

// wireWelcome transfers everything a joining worker needs: identity, the
// algorithm, and either the full graph (fresh join) or the batch tail its
// recovered WAL is missing (rejoin), plus the authoritative boundary state.
type wireWelcome struct {
	ID        int32
	AlgName   string
	Source    uint32
	NumV      uint32
	FlowCap   uint32
	CkptEvery uint32
	BatchSeq  uint64 // current boundary sequence
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
		encEdges(&e, w.Edges)
	} else {
		e.U32(uint32(len(w.Catchup)))
		for _, b := range w.Catchup {
			encBatch(&e, b)
		}
	}
	encVals(&e, w.Vals)
	encI32s(&e, w.Parent)
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
		w.Edges = decEdges(&d)
	} else {
		n := d.Count(4) // each batch is at least a 4-byte count
		w.Catchup = make([]graph.Batch, 0, n)
		for i := 0; i < n && !d.Bad(); i++ {
			w.Catchup = append(w.Catchup, decBatch(&d))
		}
	}
	w.Vals = decVals(&d)
	w.Parent = decI32s(&d)
	return w, d.Err("welcome")
}

// wireBatchStart launches (or after a recovery, relaunches) one batch: the
// applied update list, the Manager's trim set, and the flow-worker table
// for this attempt.
type wireBatchStart struct {
	Seq     uint64
	Epoch   uint64
	Applied graph.Batch // post-symmetrize updates that actually changed the graph
	Trimmed []uint32
	Assign  []int32 // flow -> worker id (length == numFlows, the validation handle)
	ReRun   bool
}

func encodeBatchStart(m wireBatchStart) []byte {
	var e wal.Enc
	e.U8(mtBatchStart)
	e.U64(m.Seq)
	e.U64(m.Epoch)
	e.Bool(m.ReRun)
	encBatch(&e, m.Applied)
	encU32s(&e, m.Trimmed)
	encI32s(&e, m.Assign)
	return e.B
}

func decodeBatchStart(p []byte) (wireBatchStart, error) {
	d := wal.Dec{B: p}
	var m wireBatchStart
	m.Seq = d.U64()
	m.Epoch = d.U64()
	m.ReRun = d.U8() != 0
	m.Applied = decBatch(&d)
	m.Trimmed = decU32s(&d)
	m.Assign = decI32s(&d)
	return m, d.Err("batch-start")
}

// wireData is a bundle of routed records tagged with the attempt epoch so
// stale in-flight traffic from an aborted attempt is discarded on arrival.
type wireData struct {
	Epoch uint64
	Recs  []dataRec
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

func decodeData(p []byte) (wireData, error) {
	d := wal.Dec{B: p}
	var m wireData
	m.Epoch = d.U64()
	n := d.Count(dataRecLen)
	m.Recs = make([]dataRec, n)
	for i := range m.Recs {
		m.Recs[i].V = d.U32()
		m.Recs[i].Parent = d.I32()
		m.Recs[i].Val = d.F64()
		m.Recs[i].Shadow = d.U8() != 0
	}
	return m, d.Err("data")
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

// wireCollect asks a worker for its owned slice of the boundary state.
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

// collectRec is one owned vertex's authoritative boundary state.
type collectRec struct {
	V      uint32
	Parent int32
	Val    float64
}

const collectRecLen = 4 + 4 + 8

type wireCollectReply struct {
	Epoch uint64
	Seq   uint64
	Recs  []collectRec
}

func encodeCollectReply(m wireCollectReply) []byte {
	var e wal.Enc
	e.U8(mtCollectReply)
	e.U64(m.Epoch)
	e.U64(m.Seq)
	e.U32(uint32(len(m.Recs)))
	for _, r := range m.Recs {
		e.U32(r.V)
		e.I32(r.Parent)
		e.F64(r.Val)
	}
	return e.B
}

func decodeCollectReply(p []byte) (wireCollectReply, error) {
	d := wal.Dec{B: p}
	var m wireCollectReply
	m.Epoch = d.U64()
	m.Seq = d.U64()
	n := d.Count(collectRecLen)
	m.Recs = make([]collectRec, n)
	for i := range m.Recs {
		m.Recs[i].V = d.U32()
		m.Recs[i].Parent = d.I32()
		m.Recs[i].Val = d.F64()
	}
	return m, d.Err("collect-reply")
}

// wireCkpt carries checkpoint commands and completions (seq only).
type wireCkpt struct{ Seq uint64 }

func encodeCkpt(mt byte, m wireCkpt) []byte {
	var e wal.Enc
	e.U8(mt)
	e.U64(m.Seq)
	return e.B
}

func decodeCkpt(p []byte) (wireCkpt, error) {
	d := wal.Dec{B: p}
	m := wireCkpt{Seq: d.U64()}
	return m, d.Err("checkpoint")
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
