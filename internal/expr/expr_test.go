package expr

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	return Scale{EdgeCap: 4000, BatchSize: 300, Batches: 2, Workers: 2}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "bb"},
		Cells:  [][]string{{"1", "2"}, {"333", "4"}},
	}
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "333") {
		t.Fatalf("rendering lost content:\n%s", s)
	}
}

func TestTable1(t *testing.T) {
	tab := Table1(tiny())
	rows := tab.Cells
	if len(rows) != 5 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r[1] == "0" {
			t.Fatalf("dataset %s generated no edges", r[0])
		}
	}
}

func TestFig4b(t *testing.T) {
	tab := Fig4b(tiny())
	rows := tab.Cells
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r[1] == "0" {
			t.Fatalf("%s has zero flows", r[0])
		}
	}
}

func TestFig11SmallScale(t *testing.T) {
	tab := Fig11(tiny())
	rows := tab.Cells
	// 5 datasets x 6 algorithms.
	if len(rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(rows))
	}
	for _, r := range rows {
		if r[3] == "0.00" && r[4] == "0.00" {
			t.Fatalf("zero timings in row %v", r)
		}
	}
}

func TestFig12Normalization(t *testing.T) {
	tab := Fig12(tiny())
	if len(tab.Cells) != 5 {
		t.Fatalf("rows = %d", len(tab.Cells))
	}
}

func TestFig13(t *testing.T) {
	tab := Fig13(tiny())
	if len(tab.Cells) != 5 {
		t.Fatalf("rows = %d", len(tab.Cells))
	}
}

func TestFig14(t *testing.T) {
	a := Fig14a(tiny())
	if len(a.Cells) != 5 {
		t.Fatalf("14a rows = %d", len(a.Cells))
	}
	b := Fig14b(tiny())
	if len(b.Cells) != 4 {
		t.Fatalf("14b rows = %d", len(b.Cells))
	}
	if b.Header[2] != "ns/update" {
		t.Fatalf("14b per-update column header = %q, want ns/update", b.Header[2])
	}
}

func TestFig15(t *testing.T) {
	a := Fig15a(tiny())
	if len(a.Cells) != 5 {
		t.Fatalf("15a rows = %d", len(a.Cells))
	}
	b := Fig15b(tiny())
	if len(b.Cells) != 4 {
		t.Fatalf("15b rows = %d", len(b.Cells))
	}
}

// TestFig16 runs the loopback cluster at 1, 2 and 4 workers. A row is
// numeric only when the cluster's values matched the single-machine solver,
// and more than one worker must route records between them.
func TestFig16(t *testing.T) {
	tab := Fig16(tiny())
	if len(tab.Cells) != 3 {
		t.Fatalf("rows = %d, want 3:\n%s", len(tab.Cells), tab)
	}
	for i, r := range tab.Cells {
		if want := strconv.Itoa(1 << i); r[0] != want {
			t.Fatalf("row %d nodes = %s, want %s", i, r[0], want)
		}
		if ms, err := strconv.ParseFloat(r[1], 64); err != nil || ms <= 0 {
			t.Fatalf("row %v: SSSP cell is not a measured time\n%s", r, tab)
		}
		recs, err := strconv.ParseFloat(r[2], 64)
		if err != nil || (i > 0 && recs == 0) {
			t.Fatalf("row %v: no records routed between workers\n%s", r, tab)
		}
	}
}

// TestFig17 pins GOMAXPROCS at 2: rows 1 and 2 are timed, and every row
// above 2 would oversubscribe the cores, so it must read "—".
func TestFig17(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tab := Fig17(tiny())
	if len(tab.Cells) != 6 {
		t.Fatalf("rows = %d", len(tab.Cells))
	}
	for _, r := range tab.Cells {
		w, _ := strconv.Atoi(r[0])
		measured := r[1] != "—" && r[2] != "—"
		if w <= 2 && !measured {
			t.Fatalf("row %v: W = %d is within GOMAXPROCS but not measured", r, w)
		}
		if w > 2 && (r[1] != "—" || r[2] != "—") {
			t.Fatalf("row %v: W = %d exceeds GOMAXPROCS but was timed", r, w)
		}
	}
	if tab.Cells[0][0] != "1" {
		t.Fatalf("first row = %v, want W = 1", tab.Cells[0])
	}
}

func TestFig4aShowsRedundancy(t *testing.T) {
	tab := Fig4a(tiny())
	rows := tab.Cells
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At least one engine on one dataset must show nonzero redundancy.
	nonzero := false
	for _, r := range rows {
		if r[1] != "0.0%" || r[2] != "0.0%" {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("no redundancy measured anywhere — probe wiring broken")
	}
}

func TestAblations(t *testing.T) {
	tabs := Ablations(tiny())
	if len(tabs) != 3 {
		t.Fatalf("ablations = %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Cells) == 0 {
			t.Fatalf("%s has no rows", tab.ID)
		}
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"table1", "4a", "4b", "11", "12", "13", "14a", "14b", "15a", "15b", "16", "17"} {
		if _, ok := ByID(id); !ok {
			t.Fatalf("ByID(%q) missing", id)
		}
	}
	for _, id := range []string{"99", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "replication", "s8"} {
		if _, ok := ByID(id); ok {
			t.Fatalf("ByID accepted %q", id)
		}
	}
}
