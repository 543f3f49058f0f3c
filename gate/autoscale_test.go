package gate

import (
	"context"
	"reflect"
	"testing"
)

// TestPoolAutoscaleGrowsAndShrinks drives the live pool's autoscaler
// through a full cycle on a manual clock: held tickets build backlog
// until consecutive breach windows activate members one by one, then
// releasing everything and ticking through the calm hold parks them
// again, down to the floor.
func TestPoolAutoscaleGrowsAndShrinks(t *testing.T) {
	ck := &captureClock{}
	p, err := NewPool(PoolConfig{
		Members:  4,
		Dispatch: "jsq",
		Autoscale: &AutoscaleConfig{
			Min: 1, Max: 4,
			Interval:  1,
			HighWater: 3, LowWater: 0.5,
			BreachWindows: 2, CalmWindows: 2,
			Cooldown: 1,
		},
		Member: Config{Limit: 100, clock: ck},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Active(); got != 1 {
		t.Fatalf("pool starts with %d active members, want Min=1", got)
	}
	ctx := context.Background()
	var held []PoolTicket
	acquire := func() {
		t.Helper()
		tk, err := p.AcquireRequest(ctx, Request{})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, tk)
	}
	// t=0: four held tickets on the lone active member. The evaluation
	// at t=0 sees an empty pool (the charges land after it).
	for i := 0; i < 4; i++ {
		acquire()
	}
	if got := p.Active(); got != 1 {
		t.Fatalf("active = %d before any breach window closed, want 1", got)
	}
	for _, n := range p.Routed()[1:] {
		if n != 0 {
			t.Fatalf("parked member took traffic: routed = %v", p.Routed())
		}
	}
	ck.t = 1
	acquire() // eval: backlog 4/1 >= 3, breach run 1
	ck.t = 2
	acquire() // breach run 2 -> scale up
	if got := p.Active(); got != 2 {
		t.Fatalf("active = %d after two breach windows, want 2", got)
	}
	ck.t = 3
	acquire() // backlog 6/2 = 3 >= 3, breach run 1
	ck.t = 4
	acquire() // breach run 2 -> scale up
	if got := p.Active(); got != 3 {
		t.Fatalf("active = %d after the second breach pair, want 3", got)
	}
	// Drain the pool and let the calm hold shrink it back to the floor.
	for _, tk := range held {
		tk.Release(Result{})
	}
	for tick := 5; tick <= 10; tick++ {
		ck.t = float64(tick)
		p.AutoscaleTick()
	}
	if got := p.Active(); got != 1 {
		t.Fatalf("active = %d after the calm hold, want Min=1", got)
	}
	ups, downs := p.AutoscaleCounts()
	if ups != 2 || downs != 2 {
		t.Errorf("autoscale counts = %d/%d, want 2 ups / 2 downs", ups, downs)
	}
	if st := p.MemberState(0); st != "up" {
		t.Errorf("member 0 state = %q, want up", st)
	}
	if st := p.MemberState(3); st != "parked" {
		t.Errorf("member 3 state = %q, want parked", st)
	}
	stats := p.Stats()
	for i, ss := range stats.Shards {
		want := "parked"
		if i == 0 {
			want = "up"
		}
		if ss.State != want {
			t.Errorf("Stats member %d state = %q, want %q", i, ss.State, want)
		}
	}
}

// TestPoolAutoscaleMaxZeroMeansEveryMember: Max 0 is the pool's own
// meaning, "every built member" — the fleet controller alone would
// reject a Max below Min. A 3-member pool armed with only Min builds,
// starts at Min, and under sustained backlog scales up to all 3
// members and no further.
func TestPoolAutoscaleMaxZeroMeansEveryMember(t *testing.T) {
	ck := &captureClock{}
	p, err := NewPool(PoolConfig{
		Members:   3,
		Dispatch:  "jsq",
		Autoscale: &AutoscaleConfig{Min: 1},
		Member:    Config{Limit: 100, clock: ck},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Active(); got != 1 {
		t.Fatalf("pool starts with %d active members, want Min=1", got)
	}
	ctx := context.Background()
	// Ten held tickets per interval keep every evaluation above the
	// default high water (8 per active member).
	for tick := 0; tick <= 8; tick++ {
		ck.t = float64(tick)
		for i := 0; i < 10; i++ {
			if _, err := p.AcquireRequest(ctx, Request{}); err != nil {
				t.Fatal(err)
			}
		}
		if got := p.Active(); got > 3 {
			t.Fatalf("t=%d: %d active members, more than the 3 built", tick, got)
		}
	}
	if got := p.Active(); got != 3 {
		t.Errorf("active = %d under sustained backlog, want every member (3)", got)
	}
	if ups, downs := p.AutoscaleCounts(); ups != 2 || downs != 0 {
		t.Errorf("autoscale counts = %d/%d, want 2 ups / 0 downs", ups, downs)
	}
}

// TestPoolAutoscaleValidation: bounds are checked against the built
// fleet, and the autoscale accessors are inert no-ops on a plain pool.
func TestPoolAutoscaleValidation(t *testing.T) {
	if _, err := NewPool(PoolConfig{
		Members:   2,
		Autoscale: &AutoscaleConfig{Min: 1, Max: 8},
		Member:    Config{Limit: 1},
	}); err == nil {
		t.Error("autoscale max above the member count accepted")
	}
	if _, err := NewPool(PoolConfig{
		Members:   2,
		Autoscale: &AutoscaleConfig{Min: 0, Max: 2},
		Member:    Config{Limit: 1},
	}); err == nil {
		t.Error("autoscale min 0 accepted")
	}
	p, err := NewPool(PoolConfig{Members: 3, Member: Config{Limit: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Active(); got != 3 {
		t.Errorf("plain pool Active() = %d, want all 3 members", got)
	}
	p.AutoscaleTick() // must not panic or change anything
	if ups, downs := p.AutoscaleCounts(); ups != 0 || downs != 0 {
		t.Errorf("plain pool autoscale counts = %d/%d, want 0/0", ups, downs)
	}
}

// TestPoolSampledDispatchDeterministic: two pools built alike route a
// held-ticket sequence identically under "jsq-d" — the sampled picks
// come from a seeded stream, not global randomness — and never touch a
// parked member.
func TestPoolSampledDispatchDeterministic(t *testing.T) {
	build := func() *Pool {
		p, err := NewPool(PoolConfig{
			Members:  8,
			Dispatch: "jsq-d:2",
			Member:   Config{Limit: 100, Seed: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := build(), build()
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		if _, err := a.AcquireRequest(ctx, Request{}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AcquireRequest(ctx, Request{}); err != nil {
			t.Fatal(err)
		}
	}
	if ra, rb := a.Routed(), b.Routed(); !reflect.DeepEqual(ra, rb) {
		t.Errorf("identical pools routed differently:\n%v\nvs\n%v", ra, rb)
	}

	// With the autoscaler holding the active set at 2, sampled dispatch
	// must confine itself to the active prefix.
	ck := &captureClock{}
	p, err := NewPool(PoolConfig{
		Members:   8,
		Dispatch:  "jsq-d:3",
		Autoscale: &AutoscaleConfig{Min: 2, Max: 8, HighWater: 1e9},
		Member:    Config{Limit: 100, clock: ck},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		ck.t = float64(i) // a fresh evaluation every route; never breaches
		if _, err := p.AcquireRequest(ctx, Request{}); err != nil {
			t.Fatal(err)
		}
	}
	routed := p.Routed()
	if routed[0]+routed[1] != 32 {
		t.Errorf("active members took %d of 32 routes: %v", routed[0]+routed[1], routed)
	}
	for i := 2; i < 8; i++ {
		if routed[i] != 0 {
			t.Errorf("parked member %d took %d routes under jsq-d", i, routed[i])
		}
	}
}
