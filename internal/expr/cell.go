package expr

import (
	"fmt"
	"strconv"
	"time"
)

// Float renders v with prec decimals.
func Float(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// Dur renders a duration in milliseconds (the tables' unit), two decimals.
func Dur(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }

// Pct renders a fraction in [0,1] as a percentage, "x.y%".
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// Ratio renders the speedup b/a (how many times faster a is than b) as
// "x.yzx", or NA when a is zero.
func Ratio(a, b time.Duration) string {
	if a == 0 {
		return NA()
	}
	return fmt.Sprintf("%.2fx", float64(b)/float64(a))
}

// NA renders an unavailable value (division by zero etc).
func NA() string { return "-" }
