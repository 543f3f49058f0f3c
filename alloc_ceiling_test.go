package extsched

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// TestAllocsPerCommitCeiling runs short closed, open-sharded and
// 16-tenant scenarios through System.Run and caps their steady-state
// heap allocations per committed transaction, so a regression of the
// recycled transaction path fails go test. Each system runs once to
// warm lazily built state, then at two horizons; the difference cancels
// the set-up (stack build, pool prewarm), leaving the per-commit cost.
// All three are allocation-flat in their horizon — tenants-16's
// deadline sheds included, since a dispatch links the items it sheds
// through the items themselves — so each ceiling sits about 3x above
// the 0.012-0.016 allocations per commit they measure.
func TestAllocsPerCommitCeiling(t *testing.T) {
	if raceEnabled {
		// The race detector's instrumentation allocates on its own
		// account, so the counts say nothing about the program.
		t.Skip("allocation counts are meaningless under -race")
	}
	tenants := []TenantSpec{{Name: "aggressor", Share: 0.4, Weight: 1}}
	for i := 1; i <= 15; i++ {
		tenants = append(tenants, TenantSpec{Name: fmt.Sprintf("t%02d", i), Share: 0.04, Weight: 4})
	}
	cases := []struct {
		name    string
		cfg     Config
		sc      func(dur float64) Scenario
		ceiling float64
	}{
		{"closed", Config{SetupID: 1, MPL: 10, Policy: PolicyFIFO, PercentileSamples: 4000},
			func(dur float64) Scenario {
				return Scenario{Warmup: 20, Phases: []Phase{{Kind: PhaseClosed, Clients: 100, Duration: dur}}}
			}, 0.04},
		{"open-sharded", Config{SetupID: 11, MPL: 16, PercentileSamples: 4000, Shards: ShardSpec{Count: 4, Dispatch: "jsq"}},
			func(dur float64) Scenario {
				return Scenario{Warmup: 20, SampleInterval: 20, Phases: []Phase{{Kind: PhaseOpen, Lambda: 112, Duration: dur}}}
			}, 0.05},
		{"tenants-16", Config{SetupID: 2, MPL: 16, Policy: PolicyWFQ, PercentileSamples: 4000},
			func(dur float64) Scenario {
				return Scenario{SampleInterval: 10, Tenants: tenants, Fairness: &FairnessSpec{Strict: true},
					Phases: []Phase{{Kind: PhaseBurst, Lambda: 228, BurstFactor: 2, Duration: dur,
						Events: []Event{{SetTenantDeadlines: map[string]float64{"aggressor": 2}}}}}}
			}, 0.04},
	}
	for _, c := range cases {
		sys, err := NewSystem(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func(dur float64) (mallocs, completed uint64) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := sys.Run(context.Background(), c.sc(dur))
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			return m1.Mallocs - m0.Mallocs, res.Total.Completed
		}
		run(40)
		m1, c1 := run(40)
		m2, c2 := run(120)
		if c2 <= c1 {
			t.Fatalf("%s: %d commits at the long horizon, %d at the short", c.name, c2, c1)
		}
		per := (float64(m2) - float64(m1)) / float64(c2-c1)
		t.Logf("%s: %.4f allocations per commit over %d commits", c.name, per, c2-c1)
		if per > c.ceiling {
			t.Errorf("%s: %.4f allocations per commit, want <= %v", c.name, per, c.ceiling)
		}
	}
}
