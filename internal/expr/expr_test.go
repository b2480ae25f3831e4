package expr

import (
	"strings"
	"testing"
)

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	return Scale{EdgeCap: 4000, BatchSize: 300, Batches: 2, MaxNodes: 8, Workers: 2}
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
	rows := tab.Rows()
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
	rows := tab.Rows()
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
	rows := tab.Rows()
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

func TestFig16Declines(t *testing.T) {
	tab := Fig16(tiny())
	if len(tab.Cells) < 3 {
		t.Fatalf("rows = %d", len(tab.Cells))
	}
}

func TestFig17(t *testing.T) {
	tab := Fig17(tiny())
	if len(tab.Cells) != 6 {
		t.Fatalf("rows = %d", len(tab.Cells))
	}
}

func TestFig4aShowsRedundancy(t *testing.T) {
	tab := Fig4a(tiny())
	rows := tab.Rows()
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
	if len(tabs) != 4 {
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
