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

// TestRecycledNextAllocsNothing checks the recycling contract: once a
// drawn profile is handed back, a later draw of its shape reuses its
// memory, so a draw-retire cycle allocates nothing — for every Table 1
// workload and for a tenant mix with size scaling — and a recycled
// draw equals what a never-recycling generator of the same seed draws.
func TestRecycledNextAllocsNothing(t *testing.T) {
	type gens struct {
		name       string
		rec, fresh *Generator
	}
	var all []gens
	for _, spec := range Table1() {
		a, err := NewGenerator(spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewGenerator(spec, 5)
		all = append(all, gens{spec.Name, a, b})
	}
	mix := []TenantMix{
		{Class: 0, Share: 0.5},
		{Class: 1, Share: 0.3, SizeMean: 2, SizeC2: 4},
		{Class: 2, Share: 0.2, SizeMean: 0.5},
	}
	a, _ := NewGenerator(WCPUInventory(), 5)
	b, _ := NewGenerator(WCPUInventory(), 5)
	if err := a.SetMix(mix); err != nil {
		t.Fatal(err)
	}
	if err := b.SetMix(mix); err != nil {
		t.Fatal(err)
	}
	all = append(all, gens{"tenant mix", a, b})

	for _, g := range all {
		// Warm every shape's free list, checking each recycled draw
		// against the fresh generator's.
		p := g.rec.Next()
		for i := 0; i < 5000; i++ {
			q := g.fresh.Next()
			if p.Class != q.Class || p.EstimatedDemand != q.EstimatedDemand || len(p.Ops) != len(q.Ops) {
				t.Fatalf("%s draw %d: recycled profile differs from a fresh one", g.name, i)
			}
			for k := range p.Ops {
				x, y := p.Ops[k], q.Ops[k]
				if x.Key != y.Key || x.Write != y.Write || x.CPUWork != y.CPUWork || !slices.Equal(x.Pages, y.Pages) {
					t.Fatalf("%s draw %d op %d: recycled %+v, fresh %+v", g.name, i, k, x, y)
				}
			}
			p.Owner.Recycle(p)
			p = g.rec.Next()
		}
		if n := testing.AllocsPerRun(500, func() {
			p.Owner.Recycle(p)
			p = g.rec.Next()
		}); n != 0 {
			t.Errorf("%s: a draw after retirement allocates %v, want 0", g.name, n)
		}
	}
}
