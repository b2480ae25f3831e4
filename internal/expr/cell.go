package expr

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// CellKind tags what a table cell holds, so BENCH_*.json consumers can
// diff and plot values without re-parsing rendered strings.
type CellKind string

const (
	// KindString is a label cell (dataset code, algorithm, mode).
	KindString CellKind = "string"
	// KindInt is an integral quantity (counts, batch sizes).
	KindInt CellKind = "int"
	// KindFloat is a plain floating-point quantity.
	KindFloat CellKind = "float"
	// KindDuration is a time span; the typed value is nanoseconds.
	KindDuration CellKind = "duration"
	// KindPercent is a fraction in [0,1] rendered as "x.y%".
	KindPercent CellKind = "percent"
	// KindRatio is a speedup/normalization factor rendered as "x.yzx".
	KindRatio CellKind = "ratio"
	// KindNA marks an unavailable value (division by zero etc).
	KindNA CellKind = "na"
)

// Cell is one typed table cell: the rendered text the aligned-text output
// prints, plus the underlying value for machine consumers. Exactly one of
// Int/Float/Ns is meaningful, per Kind.
type Cell struct {
	Kind  CellKind
	Text  string
	Int   int64
	Float float64
	Ns    int64
}

// cellJSON is the wire form: kind and text always, the typed value under
// the field matching the kind.
type cellJSON struct {
	Kind  CellKind `json:"kind"`
	Text  string   `json:"text"`
	Int   *int64   `json:"int,omitempty"`
	Value *float64 `json:"value,omitempty"`
	Ns    *int64   `json:"ns,omitempty"`
}

// MarshalJSON emits {"kind","text"} plus the kind's typed value.
func (c Cell) MarshalJSON() ([]byte, error) {
	j := cellJSON{Kind: c.Kind, Text: c.Text}
	switch c.Kind {
	case KindInt:
		j.Int = &c.Int
	case KindFloat, KindPercent, KindRatio:
		j.Value = &c.Float
	case KindDuration:
		j.Ns = &c.Ns
	}
	return json.Marshal(j)
}

// UnmarshalJSON accepts the wire form written by MarshalJSON.
func (c *Cell) UnmarshalJSON(data []byte) error {
	var j cellJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*c = Cell{Kind: j.Kind, Text: j.Text}
	if j.Int != nil {
		c.Int = *j.Int
	}
	if j.Value != nil {
		c.Float = *j.Value
	}
	if j.Ns != nil {
		c.Ns = *j.Ns
	}
	return nil
}

// Valid reports whether the cell's kind is one this schema version knows.
func (c Cell) Valid() bool {
	switch c.Kind {
	case KindString, KindInt, KindFloat, KindDuration, KindPercent, KindRatio, KindNA:
		return true
	}
	return false
}

// Numeric returns the cell's value as a float64 and whether it has one
// (strings and NA do not). Durations convert to milliseconds, matching
// the rendered unit of the text tables.
func (c Cell) Numeric() (float64, bool) {
	switch c.Kind {
	case KindInt:
		return float64(c.Int), true
	case KindFloat, KindPercent, KindRatio:
		return c.Float, true
	case KindDuration:
		return float64(c.Ns) / 1e6, true
	}
	return 0, false
}

// Str makes a label cell.
func Str(s string) Cell { return Cell{Kind: KindString, Text: s} }

// Int64 makes an integer cell.
func Int64(n int64) Cell {
	return Cell{Kind: KindInt, Text: strconv.FormatInt(n, 10), Int: n}
}

// IntCell makes an integer cell from an int.
func IntCell(n int) Cell { return Int64(int64(n)) }

// Float makes a float cell rendered with prec decimals.
func Float(v float64, prec int) Cell {
	return Cell{Kind: KindFloat, Text: strconv.FormatFloat(v, 'f', prec, 64), Float: v}
}

// Dur makes a duration cell rendered in milliseconds (the tables' unit);
// the typed value keeps full nanosecond precision.
func Dur(d time.Duration) Cell {
	return Cell{Kind: KindDuration, Text: ms(d), Ns: d.Nanoseconds()}
}

// Pct makes a percent cell from a fraction in [0,1].
func Pct(x float64) Cell {
	return Cell{Kind: KindPercent, Text: pct(x), Float: x}
}

// Ratio makes a speedup cell b/a (how many times faster a is than b),
// or NA when a is zero — the same convention as the old ratio() strings.
func Ratio(a, b time.Duration) Cell {
	if a == 0 {
		return NA()
	}
	return RatioF(float64(b) / float64(a))
}

// RatioF makes a ratio cell from a raw factor.
func RatioF(r float64) Cell {
	return Cell{Kind: KindRatio, Text: fmt.Sprintf("%.2fx", r), Float: r}
}

// NA makes an unavailable-value cell, rendered "-".
func NA() Cell { return Cell{Kind: KindNA, Text: "-"} }
