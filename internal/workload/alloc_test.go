package workload

import (
	"slices"
	"testing"

	"extsched/internal/dbms"
)

// TestNextAllocs pins a generated profile at two allocations: its
// operations and one slab of page numbers.
func TestNextAllocs(t *testing.T) {
	for _, spec := range Table1() {
		g, err := NewGenerator(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		g.Next()
		if n := testing.AllocsPerRun(500, func() { g.Next() }); n > 2 {
			t.Errorf("%s: Next allocates %v per profile, want <= 2", spec.Name, n)
		}
	}
}

// TestProfilesStayImmutable checks that later draws never reuse a
// returned profile's memory (churn resubmits a profile while an
// aborted copy may still read it), and that each operation's pages
// are capped at their own length, so appending to one cannot write
// into the next.
func TestProfilesStayImmutable(t *testing.T) {
	g, err := NewGenerator(WCPUInventory(), 9)
	if err != nil {
		t.Fatal(err)
	}
	first := g.Next()
	want := make([]dbms.Op, len(first.Ops))
	for i, op := range first.Ops {
		want[i] = op
		want[i].Pages = slices.Clone(op.Pages)
		if cap(op.Pages) != len(op.Pages) {
			t.Errorf("op %d pages: cap %d, len %d; want a capped view", i, cap(op.Pages), len(op.Pages))
		}
	}
	for i := 0; i < 1000; i++ {
		g.Next()
	}
	for i, op := range first.Ops {
		if op.Key != want[i].Key || op.Write != want[i].Write || op.CPUWork != want[i].CPUWork || !slices.Equal(op.Pages, want[i].Pages) {
			t.Fatalf("op %d changed after later draws: %+v, want %+v", i, op, want[i])
		}
	}
}
