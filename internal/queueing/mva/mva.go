// Package mva implements exact Mean Value Analysis of closed
// product-form queueing networks. It is the paper's Section 4.1 model:
// the DBMS internals are reduced to a set of queueing stations (one per
// CPU and one per disk, Fig. 6), a fixed population equal to the MPL
// circulates among them, and the achieved throughput relative to the
// bottleneck bound tells us the lowest MPL that keeps throughput within
// a DBA-specified fraction of optimal (Fig. 7). Service is exponential
// at every station, so the recursion is exact (Reiser and Lavenberg,
// JACM 27(2), 1980).
package mva

import (
	"fmt"
	"math"
)

// StationKind distinguishes queueing stations (contended, e.g. CPU or
// disk) from delay stations (no contention, e.g. client think time).
type StationKind int

const (
	// Queueing stations serve one customer at a time; waiting occurs.
	Queueing StationKind = iota
	// Delay stations serve all customers in parallel (infinite server).
	Delay
)

// Station is one service center of the closed network.
type Station struct {
	Name string
	// Demand is the total service demand per transaction at this
	// station in seconds (visit count × service time per visit).
	Demand float64
	Kind   StationKind
}

// Network is a closed product-form queueing network.
type Network struct {
	Stations []Station
}

// NewNetwork validates station demands (must be non-negative, at least
// one positive) and returns the network.
func NewNetwork(stations []Station) (*Network, error) {
	if len(stations) == 0 {
		return nil, fmt.Errorf("mva: network needs at least one station")
	}
	anyPositive := false
	for _, s := range stations {
		if s.Demand < 0 || math.IsNaN(s.Demand) || math.IsInf(s.Demand, 0) {
			return nil, fmt.Errorf("mva: station %q has invalid demand %v", s.Name, s.Demand)
		}
		if s.Demand > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		return nil, fmt.Errorf("mva: all station demands are zero")
	}
	return &Network{Stations: stations}, nil
}

// Balanced builds the Section 4.1 model of a DBMS with cpus CPUs and
// disks striped data disks, with exponential service everywhere (the
// exact product-form case).
//
// Disks are modeled as independent stations with demand ioDemand/disks
// each (data striped evenly). The CPU pool is different: any runnable
// process can use any core, so it behaves like one multi-server station
// rather than `cpus` independent queues. We apply Seidmann's
// decomposition: a c-server station with total demand D becomes a
// queueing station with demand D/c plus a delay station with demand
// D·(c−1)/c — exact at the light- and heavy-load limits and a good
// approximation between. Either demand may be zero (e.g. a pure-I/O
// workload), but not both.
func Balanced(cpus, disks int, cpuDemand, ioDemand float64) (*Network, error) {
	if cpus < 0 || disks < 0 || cpus+disks == 0 {
		return nil, fmt.Errorf("mva: need at least one resource (cpus=%d disks=%d)", cpus, disks)
	}
	var st []Station
	if cpuDemand > 0 {
		if cpus == 0 {
			return nil, fmt.Errorf("mva: cpu demand %v with zero CPUs", cpuDemand)
		}
		c := float64(cpus)
		st = append(st, Station{Name: "cpu", Demand: cpuDemand / c})
		if cpus > 1 {
			st = append(st, Station{Name: "cpu-parallel", Demand: cpuDemand * (c - 1) / c, Kind: Delay})
		}
	}
	if ioDemand > 0 {
		if disks == 0 {
			return nil, fmt.Errorf("mva: io demand %v with zero disks", ioDemand)
		}
		for i := 0; i < disks; i++ {
			st = append(st, Station{Name: fmt.Sprintf("disk%d", i), Demand: ioDemand / float64(disks)})
		}
	}
	return NewNetwork(st)
}

// Result holds the MVA solution for one population level.
type Result struct {
	Population   int
	Throughput   float64   // transactions per second
	ResponseTime float64   // mean time per transaction cycle (seconds)
	QueueLen     []float64 // mean customers at each station
	Utilization  []float64 // utilization of each station
}

// Solve runs exact MVA for populations 1..n and returns the results for
// each level (index i holds population i+1).
func (nw *Network) Solve(n int) []Result {
	if n < 1 {
		return nil
	}
	k := len(nw.Stations)
	q := make([]float64, k) // Q_i(population-1), starts at 0
	results := make([]Result, 0, n)
	for pop := 1; pop <= n; pop++ {
		r := make([]float64, k)
		var total float64
		for i, s := range nw.Stations {
			switch s.Kind {
			case Delay:
				r[i] = s.Demand
			default:
				// Arrival theorem: an arriving customer finds the
				// queue of the network with one customer fewer.
				r[i] = s.Demand * (1 + q[i])
			}
			total += r[i]
		}
		x := float64(pop) / total
		util := make([]float64, k)
		for i, s := range nw.Stations {
			q[i] = x * r[i]
			util[i] = x * s.Demand
		}
		qCopy := make([]float64, k)
		copy(qCopy, q)
		results = append(results, Result{
			Population:   pop,
			Throughput:   x,
			ResponseTime: total,
			QueueLen:     qCopy,
			Utilization:  util,
		})
	}
	return results
}

// Throughput returns the system throughput at population n.
func (nw *Network) Throughput(n int) float64 {
	if n < 1 {
		return 0
	}
	res := nw.Solve(n)
	return res[len(res)-1].Throughput
}

// MaxThroughput returns the asymptotic throughput bound 1/Dmax over
// queueing stations (the bottleneck law).
func (nw *Network) MaxThroughput() float64 {
	dmax := 0.0
	for _, s := range nw.Stations {
		if s.Kind == Queueing && s.Demand > dmax {
			dmax = s.Demand
		}
	}
	if dmax == 0 {
		return math.Inf(1)
	}
	return 1 / dmax
}

// MinMPLForFraction returns the smallest population n such that
// Throughput(n) >= fraction × MaxThroughput(), searching up to maxN.
// This is the paper's "minimum MPL that limits throughput loss to
// (1−fraction)". Returns maxN+1 if no population up to maxN suffices
// (possible when fraction is very close to 1, since the closed-network
// throughput approaches the bound only asymptotically).
func (nw *Network) MinMPLForFraction(fraction float64, maxN int) int {
	if fraction <= 0 {
		return 1
	}
	target := fraction * nw.MaxThroughput()
	results := nw.Solve(maxN)
	// Throughput is nondecreasing in population for product-form
	// networks, so the first level meeting the target is the answer.
	for _, r := range results {
		if r.Throughput >= target {
			return r.Population
		}
	}
	return maxN + 1
}
