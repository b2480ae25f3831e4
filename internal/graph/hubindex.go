package graph

// hubIndex is the neighbour->position index of a hub adjacency list: an
// open-addressing table of one uint64 per slot, neighbour<<32 | position+1,
// so a probe reads one word and an all-zero word marks an empty slot for
// every neighbour id, 0 and the largest VertexID included. Slots are found
// by a multiplicative (Fibonacci) hash and linear probing; deletion shifts
// the rest of the probe run back instead of leaving tombstones; the table
// doubles once it would be more than 3/4 full.
type hubIndex struct {
	slots []uint64
	n     int
	shift uint8 // 64 - log2(len(slots)): the hash's top bits pick the slot
}

// hubHashMul is 2^64 / phi, the Fibonacci-hashing multiplier of the hub
// index and of ApplyBatchParallel's shards (shardOf).
const hubHashMul = 0x9e3779b97f4a7c15

// newHubIndex returns an index over list, sized to hold it at no more than
// 3/4 load.
func newHubIndex(list []Half) *hubIndex {
	logCap := 3
	for 3<<logCap < 4*len(list) {
		logCap++
	}
	h := &hubIndex{slots: make([]uint64, 1<<logCap), shift: uint8(64 - logCap)}
	for i, e := range list {
		h.set(e.To, int32(i))
	}
	return h
}

func (h *hubIndex) home(k VertexID) int { return int(uint64(k) * hubHashMul >> h.shift) }

// find returns the slot holding k, or the empty slot ending its probe run.
func (h *hubIndex) find(k VertexID) int {
	mask := len(h.slots) - 1
	for i := h.home(k); ; i = (i + 1) & mask {
		s := h.slots[i]
		if s == 0 || VertexID(s>>32) == k {
			return i
		}
	}
}

// len returns the number of entries.
func (h *hubIndex) len() int { return h.n }

// get returns k's position, or -1 when k is absent.
func (h *hubIndex) get(k VertexID) int32 {
	return int32(h.slots[h.find(k)]&0xffffffff) - 1
}

// set maps k to pos, inserting or overwriting.
func (h *hubIndex) set(k VertexID, pos int32) {
	i := h.find(k)
	if h.slots[i] == 0 {
		if 4*(h.n+1) > 3*len(h.slots) {
			h.double()
			i = h.find(k)
		}
		h.n++
	}
	h.slots[i] = uint64(k)<<32 | uint64(pos+1)
}

// double doubles the table and re-inserts every entry.
func (h *hubIndex) double() {
	old := h.slots
	logCap := 64 - int(h.shift) + 1
	h.slots = make([]uint64, 1<<logCap)
	h.shift--
	for _, s := range old {
		if s != 0 {
			h.slots[h.find(VertexID(s>>32))] = s
		}
	}
}

// del removes k if present. Entries later in k's probe run that may live
// closer to their home slot shift back into the hole, so every run stays
// contiguous and no tombstone is left behind.
func (h *hubIndex) del(k VertexID) {
	i := h.find(k)
	if h.slots[i] == 0 {
		return
	}
	h.n--
	mask := len(h.slots) - 1
	for j := (i + 1) & mask; h.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j], where moving it would strand it before home.
		if (j-h.home(VertexID(h.slots[j]>>32)))&mask >= (j-i)&mask {
			h.slots[i] = h.slots[j]
			i = j
		}
	}
	h.slots[i] = 0
}

// clone returns an independent copy.
func (h *hubIndex) clone() *hubIndex {
	c := *h
	c.slots = append([]uint64(nil), h.slots...)
	return &c
}
