package engine

import "testing"

func TestFlags(t *testing.T) {
	f := newFlags(8)
	if f.get(3) {
		t.Fatal("fresh flag set")
	}
	if f.swapSet(3) {
		t.Fatal("swapSet on clear flag returned true")
	}
	if !f.get(3) || !f.swapSet(3) {
		t.Fatal("flag did not stick")
	}
	f.clear(3)
	if f.get(3) {
		t.Fatal("clear failed")
	}
	f.set(7)
	if !f.get(7) {
		t.Fatal("set failed")
	}
}
