// Package profile backs the -cpuprofile and -memprofile flags of the
// command-line tools with the standard library's runtime/pprof, so a
// CPU or heap profile of any run is one flag away:
//
//	go run ./cmd/dbsim -setup 1 -mpl 10 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package profile

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath, when it is non-empty.
// The returned stop ends the CPU profile and, when memPath is
// non-empty, writes a heap profile there after a garbage collection,
// so it shows what the run left live as well as its allocation totals.
// Call stop exactly once, after the work to profile.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeap(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
