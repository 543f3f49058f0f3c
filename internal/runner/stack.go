package runner

import (
	"fmt"

	"extsched/internal/cluster"
	"extsched/internal/core"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/sim"
	"extsched/internal/workload"
)

// Build describes a simulated system for NewStack: a Table 2 setup
// behind the MPL gate, either one backend or a sharded fleet of
// identical backends. It holds every setting a backend needs, so the
// shards a scenario adds mid-run are built exactly like the initial
// ones.
type Build struct {
	Setup workload.Setup
	// DB configures every backend's DBMS. NewStack sets its Seed: the
	// run seed on the lone backend, cluster.ShardSeed(Seed, i) on shard
	// i, which also runs at its own CPUSpeed.
	DB workload.DBOptions
	// MPL is the gate's limit (0 = unlimited); on a sharded system it
	// is the cluster-wide limit, split across the shards.
	MPL int
	// Policy names each frontend's external queue policy (see
	// core.NewPolicy; "" = FIFO), and WFQWeights are its per-class
	// weights when it is "wfq". Every frontend gets a fresh instance.
	Policy     string
	WFQWeights map[core.Class]float64
	// QueueLimit, when > 0, drops arrivals beyond it (per frontend).
	QueueLimit int
	// AdmitDeadlines sets per-class admission deadlines in seconds on
	// every frontend.
	AdmitDeadlines map[core.Class]float64
	// Shards, when > 0, builds that many backends behind a dispatcher
	// with the Dispatch routing policy. Speeds are their relative CPU
	// speeds: empty means all 1, otherwise one per shard. Shards that
	// scenario events add run at speed 1.
	Shards   int
	Speeds   []float64
	Dispatch string
	// Recovery is the sharded stack's recovery policy, taken as given
	// (see Stack.Recovery).
	Recovery *cluster.RecoveryPolicy
	// Seed drives all randomness: the generator, the DBMS, sampled
	// dispatch. NewStack uses it as given.
	Seed uint64
}

// NewStack assembles the pristine simulation a scenario runs on: a
// fresh engine, b's generator, and one backend (or b.Shards of them
// behind a dispatcher), each with a pre-warmed buffer pool. A sharded
// stack carries the NewShard factory that builds added shards the
// same way. The caller adjusts what belongs to this one stack —
// the generator's mix, class limits, ClassNames, SLO — on the result.
func NewStack(b Build) (Stack, error) {
	eng := sim.NewEngine()
	gen, err := workload.NewGenerator(b.Setup.Workload, b.Seed)
	if err != nil {
		return Stack{}, err
	}
	st := Stack{Eng: eng, Gen: gen, Seed: b.Seed}
	if b.Shards <= 0 {
		dbo := b.DB
		dbo.Seed = b.Seed
		if st.DB, st.FE, err = b.backend(eng, dbo, b.MPL); err != nil {
			return Stack{}, err
		}
		return st, nil
	}
	if n := len(b.Speeds); n > 0 && n != b.Shards {
		return Stack{}, fmt.Errorf("runner: %d shard speeds for %d shards", n, b.Shards)
	}
	shards := make([]cluster.Shard, b.Shards)
	for i := range shards {
		speed := 1.0
		if len(b.Speeds) > 0 {
			speed = b.Speeds[i]
		}
		if shards[i], err = b.shard(eng, i, speed); err != nil {
			return Stack{}, err
		}
	}
	dp, err := cluster.NewPolicySeeded(b.Dispatch, b.Seed)
	if err != nil {
		return Stack{}, err
	}
	if st.Cluster, err = cluster.NewDispatcher(dp, shards); err != nil {
		return Stack{}, err
	}
	st.Cluster.SetMPL(b.MPL)
	st.NewShard = func(i int) (cluster.Shard, error) { return b.shard(eng, i, 1) }
	st.Recovery = b.Recovery
	return st, nil
}

// shard builds shard i of a sharded stack at the given CPU speed.
func (b *Build) shard(eng *sim.Engine, i int, speed float64) (cluster.Shard, error) {
	dbo := b.DB
	dbo.CPUSpeed = speed
	dbo.Seed = cluster.ShardSeed(b.Seed, i)
	db, fe, err := b.backend(eng, dbo, 0)
	return cluster.Shard{FE: fe, DB: db, Speed: speed}, err
}

// backend builds one DBMS and its frontend at the given MPL: a fresh
// queue-policy instance (policies are stateful), the queue limit and
// admit deadlines, and the buffer pool pre-warmed with the DBMS's own
// seed.
func (b *Build) backend(eng *sim.Engine, dbo workload.DBOptions, mpl int) (*dbms.DB, *dbfe.Frontend, error) {
	db, err := dbms.New(eng, b.Setup.BuildConfig(dbo))
	if err != nil {
		return nil, nil, err
	}
	policy, err := core.NewPolicy(b.Policy, b.WFQWeights)
	if err != nil {
		return nil, nil, err
	}
	fe := dbfe.New(eng, db, mpl, policy)
	if b.QueueLimit > 0 {
		fe.SetQueueLimit(b.QueueLimit)
	}
	for c, d := range b.AdmitDeadlines {
		fe.SetAdmitDeadline(c, d)
	}
	workload.Prewarm(db, b.Setup.Workload, dbo.Seed)
	return db, fe, nil
}
