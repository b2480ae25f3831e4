package graph

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// checkHubIndex asserts h holds exactly the oracle's entries: every key
// found at its position, the entry count right, and no stale occupied slot.
func checkHubIndex(t *testing.T, h *hubIndex, oracle map[VertexID]int32, step int) {
	t.Helper()
	if h.len() != len(oracle) {
		t.Fatalf("step %d: len %d, oracle %d", step, h.len(), len(oracle))
	}
	occupied := 0
	for _, s := range h.slots {
		if s != 0 {
			occupied++
		}
	}
	if occupied != len(oracle) {
		t.Fatalf("step %d: %d occupied slots for %d entries", step, occupied, len(oracle))
	}
	if 4*h.len() > 3*len(h.slots) {
		t.Fatalf("step %d: load %d/%d above 3/4", step, h.len(), len(h.slots))
	}
	for k, p := range oracle {
		if got := h.get(k); got != p {
			t.Fatalf("step %d: get(%d) = %d, oracle %d", step, k, got, p)
		}
	}
}

// TestHubIndexMatchesMap drives seeded random set / del / get sequences
// against a map oracle. Keys come from a small range (collisions, long probe
// runs, re-insert after delete) plus 0 and the largest VertexID; the table
// starts empty, so the sequences grow it several times.
func TestHubIndexMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		h := newHubIndex(nil)
		oracle := map[VertexID]int32{}
		keyRange := 8 + r.Intn(300)
		grew := false
		for step := 0; step < 3000; step++ {
			var k VertexID
			switch x := r.Intn(20); {
			case x == 0:
				k = 0
			case x == 1:
				k = math.MaxUint32
			default:
				k = VertexID(r.Intn(keyRange)) * 7919
			}
			switch r.Intn(3) {
			case 0, 1:
				p := int32(r.Intn(1 << 20))
				before := len(h.slots)
				h.set(k, p)
				oracle[k] = p
				grew = grew || len(h.slots) > before
			default:
				h.del(k)
				delete(oracle, k)
			}
			want, ok := oracle[k]
			if !ok {
				want = -1
			}
			if got := h.get(k); got != want {
				t.Fatalf("seed %d step %d: get(%d) = %d, oracle %d", seed, step, k, got, want)
			}
			if step%97 == 0 {
				checkHubIndex(t, h, oracle, step)
			}
		}
		checkHubIndex(t, h, oracle, -1)
		if !grew {
			t.Fatalf("seed %d: the table never grew", seed)
		}
	}
}

// TestHubIndexDeleteShiftWraps pins backward-shift deletion across the end
// of the table: a probe run starting in the last slot wraps through slot 0,
// and deleting its head must shift the wrapped entries back past slot 0.
func TestHubIndexDeleteShiftWraps(t *testing.T) {
	h := newHubIndex(nil)
	last := len(h.slots) - 1
	var atLast, atZero []VertexID
	for k := VertexID(0); len(atLast) < 3 || len(atZero) < 1; k++ {
		switch h.home(k) {
		case last:
			atLast = append(atLast, k)
		case 0:
			atZero = append(atZero, k)
		}
	}
	// Slots: last, 0, 1 hold the three keys homed at last; 2 the one homed
	// at 0.
	keys := append(atLast[:3:3], atZero[0])
	oracle := map[VertexID]int32{}
	for i, k := range keys {
		h.set(k, int32(i))
		oracle[k] = int32(i)
	}
	if h.slots[0] == 0 || h.slots[2] == 0 {
		t.Fatal("probe run did not wrap past slot 0")
	}
	h.del(keys[0])
	delete(oracle, keys[0])
	checkHubIndex(t, h, oracle, 0)
	if h.slots[last] == 0 || h.slots[2] != 0 {
		t.Fatalf("shift did not close the run back over slot %d: %x", last, h.slots)
	}
	// Re-insert after delete, then empty the table.
	h.set(keys[0], 9)
	oracle[keys[0]] = 9
	checkHubIndex(t, h, oracle, 1)
	for _, k := range keys {
		h.del(k)
		delete(oracle, k)
		checkHubIndex(t, h, oracle, 2)
	}
}
