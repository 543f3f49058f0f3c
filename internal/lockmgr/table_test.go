package lockmgr

import (
	"math"
	"testing"
)

// tableKeys is the key palette the differential test draws from, 256
// keys indexed by one byte:
//   - 0, 1 and the largest uint64s;
//   - keys whose home in a 64-cell table is one of its last two cells
//     or its first, so clusters wrap around the end (a key homed in the
//     last cells of a table stays homed in the last cells after every
//     doubling, since the home is the top bits of one fixed hash);
//   - a run of small consecutive keys, enough to grow the table from
//     64 cells through three doublings.
func tableKeys() []uint64 {
	keys := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, math.MaxUint64 - 2, 1 << 63, 1 << 32}
	homed := map[uint64]int{}
	for k := uint64(2); len(keys) < 7+3*8; k++ {
		h := (k * fibMul) >> (64 - minTableLog)
		if (h == 63 || h == 62 || h == 0) && homed[h] < 8 {
			homed[h]++
			keys = append(keys, k)
		}
	}
	for k := uint64(1000); len(keys) < 256; k++ {
		keys = append(keys, k)
	}
	return keys
}

// replayTable applies ops to a table and to a Go map side by side and
// fails on the first disagreement. Each op is two bytes: the first
// picks put (0–1), get (2) or del (3) by its value mod 4, the second
// the key from tableKeys. A put of a present key deletes it first, as
// put requires an absent key.
func replayTable(t *testing.T, ops []byte) {
	keys := tableKeys()
	tab := newTable[*uint64]()
	ref := map[uint64]*uint64{}
	for i := 0; i+1 < len(ops); i += 2 {
		key := keys[ops[i+1]]
		switch ops[i] % 4 {
		case 0, 1:
			if ref[key] != nil {
				if got := tab.del(key); got != ref[key] {
					t.Fatalf("op %d: del(%#x) before put returned %p, want %p", i/2, key, got, ref[key])
				}
			}
			e := new(uint64)
			tab.put(key, e)
			ref[key] = e
		case 2:
			if got := tab.get(key); got != ref[key] {
				t.Fatalf("op %d: get(%#x) = %p, want %p", i/2, key, got, ref[key])
			}
		case 3:
			if got := tab.del(key); got != ref[key] {
				t.Fatalf("op %d: del(%#x) = %p, want %p", i/2, key, got, ref[key])
			}
			delete(ref, key)
		}
		if tab.n != len(ref) {
			t.Fatalf("op %d: table holds %d entries, map %d", i/2, tab.n, len(ref))
		}
	}
	for _, key := range keys {
		if got := tab.get(key); got != ref[key] {
			t.Fatalf("after replay: get(%#x) = %p, want %p", key, got, ref[key])
		}
	}
	held := 0
	for _, c := range tab.cells {
		if c.e != nil {
			held++
		}
	}
	if held != tab.n || 3*tab.n > 2*len(tab.cells) {
		t.Fatalf("after replay: %d full cells of %d, n = %d", held, len(tab.cells), tab.n)
	}
}

// tableFill returns ops that put keys lo..hi-1 of the palette.
func tableFill(lo, hi int) []byte {
	var ops []byte
	for k := lo; k < hi; k++ {
		ops = append(ops, 0, byte(k))
	}
	return ops
}

// tableChurn returns n ops that cycle put, get and del over palette keys
// lo..lo+span-1 with a stride, so deletions keep shifting entries back
// through the same clusters.
func tableChurn(lo, span, stride, n int) []byte {
	var ops []byte
	for i := 0; i < n; i++ {
		ops = append(ops, byte(i%4), byte(lo+(i*stride)%span))
	}
	return ops
}

func FuzzTableMatchesMap(f *testing.F) {
	// Small edge keys: 0 and the largest uint64s.
	f.Add([]byte{0, 0, 0, 2, 2, 0, 2, 2, 3, 0, 2, 0, 0, 3, 3, 2, 2, 3, 0, 0, 3, 1, 2, 1})
	// The keys sharing the last two cells and the first, then deletes
	// from the front of each wrapped cluster.
	f.Add(append(tableFill(7, 31), tableChurn(7, 24, 5, 200)...))
	f.Add(append(append(tableFill(0, 31), tableChurn(7, 24, 7, 300)...), tableChurn(0, 31, 3, 300)...))
	// Growth through three doublings, then long delete churn over a
	// table that stays large.
	f.Add(tableFill(0, 256))
	f.Add(append(tableFill(0, 256), tableChurn(0, 256, 37, 1500)...))
	f.Add(append(tableFill(0, 200), tableChurn(0, 31, 11, 1000)...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 8192 {
			ops = ops[:8192]
		}
		replayTable(t, ops)
	})
}

func TestTableChurnAllocatesNothing(t *testing.T) {
	tab := newTable[*lock]()
	locks := make([]*lock, 300)
	for i := range locks {
		locks[i] = &lock{}
		tab.put(uint64(i), locks[i])
	}
	for i := range locks {
		tab.del(uint64(i))
	}
	// The table has grown for 300 entries; cycling 200 live keys over
	// it must neither grow it nor allocate.
	for i := 0; i < 200; i++ {
		tab.put(1<<32+uint64(i), locks[i])
	}
	next := 200
	allocs := testing.AllocsPerRun(1000, func() {
		tab.del(1<<32 + uint64(next-200))
		tab.put(1<<32+uint64(next), locks[next%300])
		next++
	})
	if allocs != 0 {
		t.Errorf("put/del after growth allocates %v times per pair, want 0", allocs)
	}
	if tab.n != 200 {
		t.Errorf("table holds %d entries, want 200", tab.n)
	}
}
