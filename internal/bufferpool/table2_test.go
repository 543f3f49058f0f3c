package bufferpool_test

import (
	"testing"

	"extsched/internal/bufferpool"
	"extsched/internal/dbms"
	"extsched/internal/sim"
	"extsched/internal/workload"
)

// TestFullyCachedSetupsStayDense pins the fast path the fully-cached
// Table 2 setups run on. Setups 1 and 2 are built and prewarmed as a
// run builds them, then 100k page accesses drawn by the workload's
// generator go through Pool.Access: every one must hit, and the pool
// must still be dense. Setup 11's database exceeds its pool, so
// Prewarm fills that pool with Warm, which leaves the dense state.
func TestFullyCachedSetupsStayDense(t *testing.T) {
	for _, id := range []int{1, 2, 11} {
		setup, err := workload.SetupByID(id)
		if err != nil {
			t.Fatal(err)
		}
		db, err := dbms.New(sim.NewEngine(), setup.BuildConfig(workload.DBOptions{Seed: 1}))
		if err != nil {
			t.Fatal(err)
		}
		workload.Prewarm(db, setup.Workload, 1)
		pool := db.Pool()
		if id == 11 {
			if bufferpool.IsDense(pool) {
				t.Errorf("setup 11: a Warmed pool is still dense")
			}
			continue
		}
		gen, err := workload.NewGenerator(setup.Workload, 1)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 100_000; {
			prof := gen.Next()
			for _, op := range prof.Ops {
				for _, page := range op.Pages {
					pool.Access(page)
					n++
				}
			}
			gen.Recycle(prof)
		}
		if pool.Misses() != 0 || !bufferpool.IsDense(pool) {
			t.Errorf("setup %d: %d misses, dense = %v; want 0 misses and a pool still dense",
				id, pool.Misses(), bufferpool.IsDense(pool))
		}
	}
}
