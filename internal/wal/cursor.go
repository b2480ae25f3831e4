package wal

// Enc/Dec are the little-endian payload cursors shared by every WAL-framed
// wire and disk format in the repository: the WAL and snapshot payload
// codecs (codec.go), internal/dist's socket protocol and internal/serve's
// session protocol all compose their payloads from these primitives and
// sections inside frames written by AppendFrame/WriteFrame, so a payload
// decodes with the same discipline everywhere: every length and range is
// validated before allocation, and a malformed payload yields an error,
// never a panic or garbage.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/graph"
)

// Section record sizes: one update ([4B src][4B dst][8B weight][1B del])
// and one edge (the same without the delete flag).
const (
	updateLen = 4 + 4 + 8 + 1
	edgeLen   = 4 + 4 + 8
)

// Enc is an append-only encoder; read the accumulated payload from B.
type Enc struct{ B []byte }

// U8 appends one byte.
func (e *Enc) U8(v byte) { e.B = append(e.B, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// I32 appends an int32 in uint32 clothing.
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Batch appends an update batch section: a 4B count, then one updateLen
// record per update.
func (e *Enc) Batch(b graph.Batch) {
	buf := binary.LittleEndian.AppendUint32(e.B, uint32(len(b)))
	for _, u := range b {
		buf = binary.LittleEndian.AppendUint32(buf, u.Src)
		buf = binary.LittleEndian.AppendUint32(buf, u.Dst)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.W))
		if u.Del {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	e.B = buf
}

// Edges appends an edge list section: a 4B count, then one edgeLen record
// per edge.
func (e *Enc) Edges(edges []graph.Edge) {
	buf := binary.LittleEndian.AppendUint32(e.B, uint32(len(edges)))
	for _, ed := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, ed.Src)
		buf = binary.LittleEndian.AppendUint32(buf, ed.Dst)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ed.W))
	}
	e.B = buf
}

// F64s appends raw float64s with no count; the caller's header carries it.
func (e *Enc) F64s(xs []float64) {
	buf := e.B
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	e.B = buf
}

// I32s appends raw int32s with no count.
func (e *Enc) I32s(xs []int32) {
	buf := e.B
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	e.B = buf
}

// Dec is a sticky-error cursor: after the first violation every read
// returns zero values and Err reports the failure.
type Dec struct {
	B   []byte
	bad bool
}

// Bad reports whether the cursor has tripped a violation.
func (d *Dec) Bad() bool { return d.bad }

func (d *Dec) fail() { d.bad = true }

// Take consumes n bytes, or trips the cursor when fewer remain.
func (d *Dec) Take(n int) []byte {
	if d.bad || n < 0 || len(d.B) < n {
		d.fail()
		return nil
	}
	p := d.B[:n]
	d.B = d.B[n:]
	return p
}

// U8 reads one byte.
func (d *Dec) U8() byte {
	p := d.Take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	p := d.Take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	p := d.Take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I32 reads an int32.
func (d *Dec) I32() int32 { return int32(d.U32()) }

// F64 reads a float64 from its IEEE-754 bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := int(d.U32())
	if n < 0 || n > len(d.B) {
		d.fail()
		return ""
	}
	return string(d.Take(n))
}

// Count reads a length prefix and validates it against the remaining bytes
// at elemLen bytes per element, so a hostile count can never drive an
// allocation past the payload it arrived in.
func (d *Dec) Count(elemLen int) int {
	n := int(d.U32())
	if d.bad || n < 0 || n*elemLen > len(d.B) {
		d.fail()
		return 0
	}
	return n
}

// Batch reads an Enc.Batch section. The whole section is bounds-checked
// once, before the batch is allocated.
func (d *Dec) Batch() graph.Batch {
	n := d.Count(updateLen)
	p := d.Take(n * updateLen)
	if d.bad {
		return nil
	}
	b := make(graph.Batch, n)
	for i := range b {
		rec := p[i*updateLen : (i+1)*updateLen]
		b[i] = graph.Update{
			Edge: graph.Edge{
				Src: binary.LittleEndian.Uint32(rec[0:4]),
				Dst: binary.LittleEndian.Uint32(rec[4:8]),
				W:   math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
			},
			Del: rec[16] != 0,
		}
	}
	return b
}

// Edges reads an Enc.Edges section, tripping the cursor on an endpoint
// outside [0, numV).
func (d *Dec) Edges(numV int) []graph.Edge {
	n := d.Count(edgeLen)
	p := d.Take(n * edgeLen)
	if d.bad {
		return nil
	}
	edges := make([]graph.Edge, n)
	for i := range edges {
		rec := p[i*edgeLen : (i+1)*edgeLen]
		ed := graph.Edge{
			Src: binary.LittleEndian.Uint32(rec[0:4]),
			Dst: binary.LittleEndian.Uint32(rec[4:8]),
			W:   math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
		}
		if int(ed.Src) >= numV || int(ed.Dst) >= numV {
			d.fail()
			return nil
		}
		edges[i] = ed
	}
	return edges
}

// F64s reads n raw float64s, bounds-checked once before allocation.
func (d *Dec) F64s(n int) []float64 {
	p := d.Take(n * 8)
	if d.bad {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
	}
	return xs
}

// I32s reads n raw int32s, bounds-checked once before allocation.
func (d *Dec) I32s(n int) []int32 {
	p := d.Take(n * 4)
	if d.bad {
		return nil
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(binary.LittleEndian.Uint32(p[i*4:]))
	}
	return xs
}

// Err finalizes the decode: it reports a tripped cursor or trailing bytes
// as an ErrCorrupt-wrapped error, and nil on a clean, fully consumed
// payload. what names the message for the error text.
func (d *Dec) Err(what string) error {
	if d.bad {
		return fmt.Errorf("%w: malformed %s message", ErrCorrupt, what)
	}
	if len(d.B) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %s message", ErrCorrupt, len(d.B), what)
	}
	return nil
}
