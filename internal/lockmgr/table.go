package lockmgr

// fibMul is 2^64 / φ, the multiplier of Fibonacci hashing: the top bits
// of key·fibMul spread consecutive keys and ids evenly over a table.
const fibMul = 0x9E3779B97F4A7C15

// minTableLog is log2 of a new table's cell count.
const minTableLog = 6

// cell is one slot of a table: a key stored inline and its entry. A
// cell is empty when e is the zero value (nil for the pointer types
// the manager stores).
type cell[E comparable] struct {
	key uint64
	e   E
}

// table maps uint64 keys to non-zero entries by open addressing: a
// key's home cell is the top bits of its Fibonacci hash (a fixed
// function, so runs stay deterministic), collisions probe forward, and
// deletion shifts the rest of the cluster back instead of leaving a
// tombstone (Knuth, TAOCP vol. 3, §6.4, Algorithm R), so probes stay
// short under any amount of insert/delete churn. The table starts at
// 64 cells and doubles before it would pass 2/3 full, so every probe
// ends at an empty cell. After it has grown to a workload's peak, put
// and del allocate nothing.
type table[E comparable] struct {
	cells []cell[E]
	shift uint // 64 − log2(len(cells)): home cell = hash >> shift
	n     int  // entries held
}

// newTable returns an empty table of 64 cells.
func newTable[E comparable]() table[E] {
	return table[E]{cells: make([]cell[E], 1<<minTableLog), shift: 64 - minTableLog}
}

// home returns key's home cell.
func (t *table[E]) home(key uint64) int {
	return int((key * fibMul) >> t.shift)
}

// get returns key's entry, or the zero E if key is absent.
func (t *table[E]) get(key uint64) E {
	var zero E
	mask := len(t.cells) - 1
	for c := t.home(key); ; c = (c + 1) & mask {
		cl := &t.cells[c]
		if cl.e == zero || cl.key == key {
			return cl.e
		}
	}
}

// put adds key with non-zero entry e. key must be absent.
func (t *table[E]) put(key uint64, e E) {
	if 3*(t.n+1) > 2*len(t.cells) {
		t.grow()
	}
	t.place(key, e)
	t.n++
}

// place stores key and e in the first empty cell from key's home.
func (t *table[E]) place(key uint64, e E) {
	var zero E
	mask := len(t.cells) - 1
	c := t.home(key)
	for t.cells[c].e != zero {
		c = (c + 1) & mask
	}
	t.cells[c] = cell[E]{key, e}
}

// grow doubles the table and re-places every entry.
func (t *table[E]) grow() {
	var zero E
	old := t.cells
	t.cells = make([]cell[E], 2*len(old))
	t.shift--
	for _, cl := range old {
		if cl.e != zero {
			t.place(cl.key, cl.e)
		}
	}
}

// del removes key and returns its entry, or the zero E if key is
// absent. Backward-shift deletion refills the hole with the next entry
// of its cluster that may legally sit there (its home cell is not
// strictly between the hole and it), until the cluster ends.
func (t *table[E]) del(key uint64) E {
	var zero E
	mask := len(t.cells) - 1
	hole := t.home(key)
	for t.cells[hole].e != zero && t.cells[hole].key != key {
		hole = (hole + 1) & mask
	}
	e := t.cells[hole].e
	if e == zero {
		return zero
	}
	for c := (hole + 1) & mask; t.cells[c].e != zero; c = (c + 1) & mask {
		if h := t.home(t.cells[c].key); (c-h)&mask >= (c-hole)&mask {
			t.cells[hole] = t.cells[c]
			hole = c
		}
	}
	t.cells[hole] = cell[E]{}
	t.n--
	return e
}
