// Package wal gives the single-node engines a durability story: a
// segmented, CRC32C-framed write-ahead log of edge batches with a
// configurable fsync policy, periodic snapshot checkpoints of the
// graph.Streaming state and engine refinement floors, log truncation behind
// snapshots, and a recovery path that restores the newest intact snapshot
// and replays the WAL tail through the engine to converge on the
// from-scratch oracle (DESIGN.md §4.9).
//
// The frame codec in this file is the shared serialization layer: the WAL
// segments and the snapshot files (the engines' and the distributed
// workers' alike), plus the dist and serve socket protocols, all speak it,
// so every durable artifact and every message in the repository detects
// truncation and bit corruption the same way.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/engine"
	"repro/internal/graph"
)

// Frame layout, little-endian:
//
//	[4B payload length][4B CRC32C of kind+payload][1B kind][payload]
//
// The length counts the kind byte plus the payload, so a reader can skip a
// frame it does not understand while still checksumming it. A frame is torn
// when the file ends before the declared length, and corrupt when the CRC
// does not match; readers stop cleanly at the first of either.
const (
	frameHeaderLen = 8
	// MaxFrameLen bounds a single frame (1 GiB): a declared length beyond
	// it is treated as corruption, never as an allocation request.
	MaxFrameLen = 1 << 30
	// frameChunk is what ReadFrame allocates before it has received a body
	// byte; a frame up to it (a batch, a wire message) takes one allocation.
	frameChunk = 256 << 10
)

// Frame kinds. The codec itself is kind-agnostic; these constants name the
// record types the WAL and the snapshot files write.
const (
	// KindBatch is one logged edge batch: [8B seq][batch payload].
	KindBatch byte = 1
	// KindSnapHeader opens a snapshot file: seq, vertex count, state dim.
	KindSnapHeader byte = 2
	// KindSnapEdges carries the snapshot graph's edge list.
	KindSnapEdges byte = 3
	// KindSnapState carries the engine values and key-edge parents.
	KindSnapState byte = 4
	// KindSnapFooter closes a snapshot file; its absence marks a snapshot
	// that was still being written when the process died.
	KindSnapFooter byte = 5
	// KindDistCheckpoint carries a distributed worker's state in place of
	// KindSnapState inside a worker snapshot file: [8B seq][EncodeState].
	KindDistCheckpoint byte = 6
	// KindSnapAccState carries the accumulative engine's residual state
	// (rank vector + aggregate + last-broadcast residuals) in place of
	// KindSnapState inside an accumulative snapshot file.
	KindSnapAccState byte = 7
	// KindBatchTagged is a logged edge batch carrying a client idempotency
	// key: [4B len][clientID][8B clientSeq][KindBatch payload]. The key and
	// the batch share one frame (one CRC), so a torn write can never persist
	// the batch without its dedup record or vice versa.
	KindBatchTagged byte = 8
	// KindSnapDedup, when present between KindSnapState (or KindSnapAccState)
	// and the footer, carries the per-client dedup window consistent with the
	// snapshot's sequence. Readers tolerate its absence: snapshots written
	// before exactly-once ingest (or with dedup disabled) simply lack it.
	KindSnapDedup byte = 9
)

// castagnoli is the CRC32C polynomial table (the same checksum families
// like RocksDB and etcd frame their logs with; SSE4.2 accelerates it).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sentinel errors readers branch on. ErrTorn means the file ended inside a
// frame (a crashed append); ErrCorrupt means the frame is structurally
// complete but fails its checksum or sanity bounds (bit rot, overwrite).
var (
	ErrTorn    = errors.New("wal: torn frame (file ends mid-frame)")
	ErrCorrupt = errors.New("wal: corrupt frame (checksum or bounds violation)")
)

// AppendFrame appends one encoded frame to buf and returns the extension.
func AppendFrame(buf []byte, kind byte, payload []byte) []byte {
	n := len(payload) + 1
	var hdr [frameHeaderLen + 1]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	crc := crc32.Update(0, castagnoli, []byte{kind})
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	hdr[8] = kind
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	_, err := w.Write(AppendFrame(nil, kind, payload))
	return err
}

// ReadFrame reads the next frame from r. It returns io.EOF at a clean end
// of input, ErrTorn when the input ends inside a frame, and ErrCorrupt when
// the frame fails its checksum or declares an impossible length. The
// returned payload aliases a fresh allocation and is safe to retain.
func ReadFrame(r io.Reader) (kind byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, ErrTorn // ErrUnexpectedEOF or a short read
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if n < 1 || n > MaxFrameLen {
		return 0, nil, ErrCorrupt
	}
	// The declared length is untrusted until the checksum holds: the buffer
	// at most doubles past the bytes actually received, so a flipped length
	// field over a short input costs frameChunk, not up to 1 GiB.
	var body []byte
	for len(body) < n {
		got := len(body)
		body = append(body, make([]byte, min(n-got, max(got, frameChunk)))...)
		if _, err := io.ReadFull(r, body[got:]); err != nil {
			return 0, nil, ErrTorn
		}
	}
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return 0, nil, ErrCorrupt
	}
	return body[0], body[1:], nil
}

// frameWriter streams frames into a file through one fixed buffer, so a
// frame of any size is written without ever being held whole: each frame's
// CRC accumulates as its bytes leave the buffer, and end patches the
// frame's length and CRC into the header it reserved — in the buffer while
// the header is still there, in the file with WriteAt once flushed. The
// bytes equal AppendFrame's for the same payloads. Errors are sticky in err.
type frameWriter struct {
	f     *os.File
	buf   []byte // pending bytes; the capacity is fixed
	off   int64  // file offset of buf[0]
	start int64  // file offset of the open frame's header
	crcAt int    // buf index from which the open frame is not yet in crc
	crc   uint32
	err   error
}

// frameBufLen is frameWriter's buffer: large enough that a snapshot's
// edge stream costs a few hundred writes, small enough to be noise next to
// the state frame.
const frameBufLen = 256 << 10

func newFrameWriter(f *os.File) *frameWriter {
	return &frameWriter{f: f, buf: make([]byte, 0, frameBufLen)}
}

// flush writes the buffer out, folding the open frame's share into crc.
// After an error it only empties the buffer.
func (w *frameWriter) flush() {
	if w.err != nil {
		w.buf = w.buf[:0]
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, w.buf[w.crcAt:])
	_, w.err = w.f.Write(w.buf)
	w.off += int64(len(w.buf))
	w.buf, w.crcAt = w.buf[:0], 0
}

// room makes n bytes of buffer space available (n <= frameBufLen).
func (w *frameWriter) room(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.flush()
	}
}

// begin opens a frame of the given kind, reserving its header.
func (w *frameWriter) begin(kind byte) {
	w.room(frameHeaderLen + 1)
	w.start = w.off + int64(len(w.buf))
	w.buf = append(w.buf, make([]byte, frameHeaderLen)...)
	w.crcAt, w.crc = len(w.buf), 0
	w.buf = append(w.buf, kind)
}

// write appends payload bytes to the open frame.
func (w *frameWriter) write(p []byte) {
	for len(p) > 0 && w.err == nil {
		w.room(1)
		n := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf, p = w.buf[:len(w.buf)+n], p[n:]
	}
}

// edge appends one Enc.Edges record to the open frame.
func (w *frameWriter) edge(src graph.VertexID, h graph.Half) {
	w.room(edgeLen)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, src)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, h.To)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(h.W))
}

// end closes the open frame, patching its length and CRC into its header.
func (w *frameWriter) end() {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, w.buf[w.crcAt:])
	w.crcAt = len(w.buf)
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(w.off+int64(len(w.buf))-w.start-frameHeaderLen))
	binary.LittleEndian.PutUint32(hdr[4:8], w.crc)
	if at := w.start - w.off; at >= 0 {
		copy(w.buf[at:], hdr[:])
		return
	}
	_, w.err = w.f.WriteAt(hdr[:], w.start)
}

// frame writes one whole frame.
func (w *frameWriter) frame(kind byte, payload []byte) {
	w.begin(kind)
	w.write(payload)
	w.end()
}

// --- payload codecs ---
//
// Payloads are flat little-endian records composed from the Enc/Dec
// sections in cursor.go. Decoders validate every length and range before
// allocating or returning data: a decoder must never panic or hand back
// garbage on adversarial input (the corruption table and fuzz targets in
// codec_test.go hold them to it).

// EncodeBatch encodes a sequence-numbered edge batch.
func EncodeBatch(buf []byte, seq uint64, b graph.Batch) []byte {
	e := Enc{B: buf}
	e.U64(seq)
	e.Batch(b)
	return e.B
}

// DecodeBatch decodes EncodeBatch's payload.
func DecodeBatch(p []byte) (seq uint64, b graph.Batch, err error) {
	d := Dec{B: p}
	seq = d.U64()
	b = d.Batch()
	if err := d.Err("batch"); err != nil {
		return 0, nil, err
	}
	return seq, b, nil
}

// maxClientIDLen bounds a client identity inside tagged frames; a longer
// declared length is corruption.
const maxClientIDLen = 256

// EncodeTaggedBatch encodes a sequence-numbered edge batch carrying a client
// idempotency key (clientID, clientSeq). The tag prefixes a standard
// EncodeBatch payload so the two decode paths share the batch tail.
func EncodeTaggedBatch(buf []byte, seq uint64, clientID string, clientSeq uint64, b graph.Batch) []byte {
	e := Enc{B: buf}
	e.Str(clientID)
	e.U64(clientSeq)
	return EncodeBatch(e.B, seq, b)
}

// DecodeTaggedBatch decodes EncodeTaggedBatch's payload.
func DecodeTaggedBatch(p []byte) (seq uint64, b graph.Batch, clientID string, clientSeq uint64, err error) {
	d := Dec{B: p}
	clientID = d.Str()
	clientSeq = d.U64()
	seq = d.U64()
	b = d.Batch()
	if err := d.Err("tagged batch"); err != nil {
		return 0, nil, "", 0, err
	}
	if clientID == "" || len(clientID) > maxClientIDLen {
		return 0, nil, "", 0, fmt.Errorf("%w: tagged batch declares %d-byte client id", ErrCorrupt, len(clientID))
	}
	return seq, b, clientID, clientSeq, nil
}

// EncodeState encodes per-vertex values and key-edge parents (an engine
// snapshot's state section and, behind a seq prefix, a worker snapshot's).
// parent may be nil when only values are checkpointed.
func EncodeState(buf []byte, vals []float64, parent []int32) []byte {
	e := Enc{B: buf}
	e.U32(uint32(len(vals)))
	e.U32(uint32(len(parent)))
	e.F64s(vals)
	e.I32s(parent)
	return e.B
}

// DecodeState decodes EncodeState's payload. Parents must be -1 or a valid
// vertex under numV; values of a dim-vector state pass numV*dim.
func DecodeState(p []byte, numVals, numV int) (vals []float64, parent []int32, err error) {
	d := Dec{B: p}
	nv, np := int(d.U32()), int(d.U32())
	if d.Bad() || nv != numVals || (np != 0 && np != numV) {
		return nil, nil, fmt.Errorf("%w: state declares %d values / %d parents, want %d / {0,%d}",
			ErrCorrupt, nv, np, numVals, numV)
	}
	vals = d.F64s(nv)
	if np > 0 {
		parent = d.I32s(np)
	}
	if err := d.Err("state"); err != nil {
		return nil, nil, err
	}
	for i, pv := range parent {
		if pv < -1 || int(pv) >= numV {
			return nil, nil, fmt.Errorf("%w: parent[%d]=%d outside [-1,%d)", ErrCorrupt, i, pv, numV)
		}
	}
	return vals, parent, nil
}

// EncodeAccState appends the accumulative engine's residual state: a header
// of [4B dim][4B numV] followed by the state, aggregate, and last-broadcast
// vectors, each numV*dim little-endian float64 bits. buf may be nil.
func EncodeAccState(buf []byte, numV int, st *engine.AccState) []byte {
	e := Enc{B: buf}
	e.U32(uint32(st.Dim))
	e.U32(uint32(numV))
	e.F64s(st.State)
	e.F64s(st.Agg)
	e.F64s(st.LastUnit)
	return e.B
}

// DecodeAccState decodes EncodeAccState's payload, validating the declared
// dimension and vertex count against the snapshot header's.
func DecodeAccState(p []byte, numV int) (*engine.AccState, error) {
	d := Dec{B: p}
	dim, nv := int(d.U32()), int(d.U32())
	if d.Bad() || dim < 1 || dim > 1<<12 || nv != numV {
		return nil, fmt.Errorf("%w: acc state declares dim %d over %d vertices, want %d vertices",
			ErrCorrupt, dim, nv, numV)
	}
	n := nv * dim
	st := &engine.AccState{Dim: dim, State: d.F64s(n), Agg: d.F64s(n), LastUnit: d.F64s(n)}
	if err := d.Err("acc state"); err != nil {
		return nil, err
	}
	return st, nil
}
