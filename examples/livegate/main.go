// Live gate demo: the paper's external scheduling loop running on a
// wall clock against real goroutines instead of the discrete-event
// simulator.
//
// A fake "legacy database" with a hard capacity of 4 workers serves 64
// impatient clients. Phase 1 measures the no-limit reference
// throughput (every client piles straight into the database, so its
// internal queue — and therefore its internal latency — is long).
// Phase 2 turns on the MPL gate with the Section 4.3 feedback
// controller: the limit walks down from a deliberately bad start (16)
// to the database's capacity, throughput stays within tolerance, and
// the latency *inside* the database collapses because the waiting now
// happens in the gate's external queue — where it is observable,
// reorderable, and cancellable.
//
//	go run ./examples/livegate
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"extsched/gate"
	"extsched/metrics"
)

const (
	dbCapacity = 4
	dbHold     = time.Millisecond
	clients    = 64
)

// db is the guarded resource: a worker pool of dbCapacity slots, each
// operation occupying one for dbHold.
type db struct {
	pool chan struct{}
}

func (d *db) query() (inside time.Duration) {
	start := time.Now()
	d.pool <- struct{}{}
	time.Sleep(dbHold)
	<-d.pool
	return time.Since(start)
}

func main() {
	g, err := gate.New(gate.Config{})
	if err != nil {
		log.Fatal(err)
	}
	d := &db{pool: make(chan struct{}, dbCapacity)}

	var mu sync.Mutex
	var insideSum time.Duration
	var insideN int
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tk, err := g.Acquire(context.Background())
				if err != nil {
					return
				}
				inside := d.query()
				tk.Release(gate.Result{})
				mu.Lock()
				insideSum += inside
				insideN++
				mu.Unlock()
			}
		}()
	}
	meanInside := func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		if insideN == 0 {
			return 0
		}
		m := insideSum / time.Duration(insideN)
		insideSum, insideN = 0, 0
		return m
	}

	fmt.Printf("fake database: capacity %d, %v per query; %d closed-loop clients\n\n",
		dbCapacity, dbHold, clients)

	// Phase 1: no limit — measure the reference optimum the controller
	// will defend. Note the database-internal latency: every admitted
	// client queues inside the resource.
	fmt.Println("phase 1: gate unlimited (probe run, measuring the reference)")
	time.Sleep(300 * time.Millisecond) // warm up
	g.ResetStats()
	meanInside()
	time.Sleep(1500 * time.Millisecond)
	ref := g.Stats()
	refInside := meanInside()
	fmt.Printf("  throughput %7.0f/s   p95 %6.1fms   time inside the DB %6.1fms\n\n",
		ref.Throughput, ref.P95*1000, float64(refInside)/float64(time.Millisecond))

	// Phase 2: gate on, feedback controller tuning the limit against
	// the measured reference. Start deliberately high so the walk down
	// is visible.
	fmt.Println("phase 2: limit 16, controller targets <= 10% throughput loss")
	g.SetLimit(16)
	if err := g.EnableAutoTune(gate.TuneConfig{
		MaxThroughputLoss:   0.10,
		ReferenceThroughput: ref.Throughput,
		MinObservations:     100,
		MaxWindow:           1000,
		MaxLimit:            64,
	}); err != nil {
		log.Fatal(err)
	}
	// Stream the walk-down: Watch delivers the same metrics.Snapshot
	// vocabulary the simulator's scenario observers receive.
	converged := make(chan struct{})
	var once sync.Once
	stopWatch := g.Watch(0.5, metrics.ObserverFunc(func(s gate.Stats) {
		st := g.TuneStatus()
		fmt.Printf("  limit %3d   throughput %7.0f/s (%5.1f%% of ref)   queued %2d   iterations %d\n",
			st.Limit, s.Throughput, 100*s.Throughput/ref.Throughput, s.Queued, st.Iterations)
		if st.Converged {
			once.Do(func() { close(converged) })
		}
	}))
	select {
	case <-converged:
	case <-time.After(15 * time.Second):
	}
	stopWatch()

	st := g.TuneStatus()
	g.ResetStats()
	meanInside()
	time.Sleep(1500 * time.Millisecond)
	tuned := g.Stats()
	tunedInside := meanInside()
	close(stop)
	wg.Wait()

	fmt.Println()
	if st.Converged {
		fmt.Printf("converged at limit %d in %d iterations\n", st.Limit, st.Iterations)
	} else {
		fmt.Printf("not converged within the demo window (limit %d after %d iterations)\n",
			st.Limit, st.Iterations)
	}
	fmt.Printf("  throughput %7.0f/s (reference %7.0f/s, %5.1f%%)\n",
		tuned.Throughput, ref.Throughput, 100*tuned.Throughput/ref.Throughput)
	fmt.Printf("  time inside the DB %6.1fms -> %6.1fms: the backlog moved into the\n",
		float64(refInside)/float64(time.Millisecond), float64(tunedInside)/float64(time.Millisecond))
	fmt.Println("  gate's external queue, where it can be reordered, shed, or canceled —")
	fmt.Println("  the paper's external scheduling result, live on a wall clock.")
}
