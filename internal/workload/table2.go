package workload

import (
	"fmt"

	"extsched/internal/dbms"
	"extsched/internal/lockmgr"
)

// Setup is one Table 2 experimental configuration: a workload bound to
// a hardware shape and isolation level.
type Setup struct {
	ID        int
	Workload  Spec
	CPUs      int
	Disks     int
	Isolation dbms.Isolation
}

// String renders the setup like a Table 2 row.
func (s Setup) String() string {
	return fmt.Sprintf("setup %d: %s cpus=%d disks=%d iso=%s",
		s.ID, s.Workload.Name, s.CPUs, s.Disks, s.Isolation)
}

// Table2 returns the paper's 17 setups.
func Table2() []Setup {
	cpuInv := WCPUInventory()
	cpuBro := WCPUBrowsing()
	ioInv := WIOInventory()
	ioBro := WIOBrowsing()
	cpuIO := WCPUIOInventory()
	cpuOrd := WCPUOrdering()
	return []Setup{
		{ID: 1, Workload: cpuInv, CPUs: 1, Disks: 1, Isolation: dbms.RR},
		{ID: 2, Workload: cpuInv, CPUs: 2, Disks: 1, Isolation: dbms.RR},
		{ID: 3, Workload: cpuBro, CPUs: 1, Disks: 1, Isolation: dbms.RR},
		{ID: 4, Workload: cpuBro, CPUs: 2, Disks: 1, Isolation: dbms.RR},
		{ID: 5, Workload: ioInv, CPUs: 1, Disks: 1, Isolation: dbms.RR},
		{ID: 6, Workload: ioInv, CPUs: 1, Disks: 2, Isolation: dbms.RR},
		{ID: 7, Workload: ioInv, CPUs: 1, Disks: 3, Isolation: dbms.RR},
		{ID: 8, Workload: ioInv, CPUs: 1, Disks: 4, Isolation: dbms.RR},
		{ID: 9, Workload: ioBro, CPUs: 1, Disks: 1, Isolation: dbms.RR},
		{ID: 10, Workload: ioBro, CPUs: 1, Disks: 4, Isolation: dbms.RR},
		{ID: 11, Workload: cpuIO, CPUs: 1, Disks: 1, Isolation: dbms.RR},
		{ID: 12, Workload: cpuIO, CPUs: 2, Disks: 4, Isolation: dbms.RR},
		{ID: 13, Workload: cpuOrd, CPUs: 1, Disks: 1, Isolation: dbms.RR},
		{ID: 14, Workload: cpuOrd, CPUs: 1, Disks: 1, Isolation: dbms.UR},
		{ID: 15, Workload: cpuOrd, CPUs: 2, Disks: 1, Isolation: dbms.RR},
		{ID: 16, Workload: cpuOrd, CPUs: 2, Disks: 1, Isolation: dbms.UR},
		{ID: 17, Workload: cpuInv, CPUs: 1, Disks: 1, Isolation: dbms.UR},
	}
}

// SetupByID returns the Table 2 setup with the given id (1-based).
func SetupByID(id int) (Setup, error) {
	for _, s := range Table2() {
		if s.ID == id {
			return s, nil
		}
	}
	return Setup{}, fmt.Errorf("workload: unknown setup %d", id)
}

// DBOptions customize the engine built for a setup.
type DBOptions struct {
	// LockPolicy orders lock wait queues. Default FIFO.
	LockPolicy lockmgr.Policy
	// POW enables Preempt-on-Wait lock preemption.
	POW bool
	// CPUPriority enables internal CPU prioritization.
	CPUPriority bool
	// GroupCommit batches commit log writes (see dbms.Config).
	GroupCommit bool
	// CPUSpeed scales the CPU cores' speed (0 = 1, nominal) — cluster
	// shards use it to model heterogeneous or degraded replicas.
	CPUSpeed float64
	// Seed drives all of the DB's internal randomness.
	Seed uint64
}

// BuildConfig assembles the dbms.Config for a setup.
func (s Setup) BuildConfig(opts DBOptions) dbms.Config {
	return dbms.Config{
		CPUs:            s.CPUs,
		CPUSpeed:        opts.CPUSpeed,
		Disks:           s.Disks,
		DiskService:     s.Workload.DiskService,
		LogService:      s.Workload.LogService,
		BufferPoolPages: s.Workload.BufferPoolPages,
		Isolation:       s.Isolation,
		LockPolicy:      opts.LockPolicy,
		POW:             opts.POW,
		CPUPriority:     opts.CPUPriority,
		GroupCommit:     opts.GroupCommit,
		Seed:            opts.Seed,
	}
}

// Demands returns the setup's aggregate per-transaction CPU and I/O
// demand estimates (seconds), the inputs to the MVA jump-start model.
func (s Setup) Demands() (cpu, io float64) {
	return s.Workload.MeanCPUDemand(), s.Workload.MeanIODemand()
}

// Prewarm brings db's buffer pool to its steady-state working set
// without consuming simulated time, so measurements don't include the
// cold-start miss storm (the paper measures steady state; a real
// benchmark run warms for minutes first). Fully-cached workloads get
// every page touched once, in page order, which is one append per page
// and leaves the pool in its dense state (see package bufferpool): no
// page index and no recency list are built, and every later hit is one
// store until something needs them. Partially-cached ones get exactly the pool
// that 5 × capacity accesses drawn from the access pattern (stream 77
// of seed) would leave, enough for the LRU's content distribution to
// stabilise; bufferpool.Pool.Warm installs that pool by walking the
// access stream backwards until the pool is full, without replaying it.
func Prewarm(db *dbms.DB, spec Spec, seed uint64) {
	pool := db.Pool()
	if uint64(pool.Capacity()) >= spec.DBPages {
		for p := uint64(0); p < spec.DBPages; p++ {
			pool.Access(p)
		}
	} else {
		pool.Warm(spec.Pattern(), seed, 77, 5*pool.Capacity())
	}
	pool.ResetStats()
}
