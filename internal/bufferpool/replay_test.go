package bufferpool_test

import (
	"slices"
	"testing"

	"extsched/internal/bufferpool"
	"extsched/internal/workload"
)

// TestWarmMatchesReplay checks Warm against the replay on every Table 2
// workload whose database exceeds its pool (the case Prewarm warms with
// it, at Prewarm's stream and length) and on patterns at the edges of
// Warm's walk, each on seeds 1–5.
func TestWarmMatchesReplay(t *testing.T) {
	var partial []string
	for _, setup := range workload.Table2() {
		spec := setup.Workload
		if uint64(spec.BufferPoolPages) >= spec.DBPages || slices.Contains(partial, spec.Name) {
			continue
		}
		partial = append(partial, spec.Name)
		for seed := uint64(1); seed <= 5; seed++ {
			bufferpool.CheckWarmMatchesReplay(t, spec.BufferPoolPages, spec.Pattern(), seed, 77, 5*spec.BufferPoolPages)
		}
	}
	slices.Sort(partial)
	if want := []string{"W_CPU+IO-inventory", "W_IO-browsing", "W_IO-inventory"}; !slices.Equal(partial, want) {
		t.Fatalf("partially-cached Table 2 workloads = %v, want %v", partial, want)
	}

	edges := []struct {
		capacity int
		pat      bufferpool.AccessPattern
	}{
		{1, bufferpool.AccessPattern{DBPages: 1000, HotFrac: 0.1, HotAccess: 0.5}},
		// A hot set of 10 pages in a pool of 64 that never fills: Warm
		// walks the whole stream.
		{64, bufferpool.AccessPattern{DBPages: 10_000, HotFrac: 0.001, HotAccess: 1}},
		{100, bufferpool.AccessPattern{DBPages: 5000, HotFrac: 0.2, HotAccess: 0}},
		// The database is the hot set.
		{100, bufferpool.AccessPattern{DBPages: 300, HotFrac: 1, HotAccess: 0.8}},
	}
	for _, e := range edges {
		for seed := uint64(1); seed <= 5; seed++ {
			bufferpool.CheckWarmMatchesReplay(t, e.capacity, e.pat, seed, 77, 5*e.capacity)
		}
	}
}
