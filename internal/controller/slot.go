package controller

import (
	"fmt"
	"sync"
	"sync/atomic"

	"extsched/internal/core"
)

// Loop is a control loop driven by a gate's completion stream: call
// Observe once per completed item, from any goroutine. The loop tallies
// the item into its own observation window and reacts once that window
// has seen enough. Controller, SLOController and fairness.Controller
// implement it.
type Loop interface {
	Observe(it *core.Item)
}

// Kind names a family of loops for Slot's attachment rule.
type Kind string

// The loop kinds a gate can hold. KindMPL sets the gate's limit;
// KindSLO and KindFairness both write its class partition.
const (
	KindMPL      Kind = "throughput controller"
	KindSLO      Kind = "SLO controller"
	KindFairness Kind = "fairness controller"
)

// Slot is a gate's control-loop attachment point. It holds one MPL loop
// and one partition loop (SLO or fairness) and feeds each completion to
// both, the MPL loop first: the MPL loop sets the limit and the
// partition loop splits it. Each loop owns its observation window, so
// neither disturbs the other. The SLO and fairness loops both write the
// class partition, so attaching one fails while the other is held;
// attaching the kind already held replaces it. Observe, the completion
// path, is one atomic load of an immutable pair; Attach and Detach
// serialize on a mutex and publish a new pair. The zero Slot is empty
// and ready to use.
type Slot struct {
	mu   sync.Mutex
	held atomic.Pointer[[2]heldLoop] // [0] the MPL loop, [1] the partition loop
}

type heldLoop struct {
	kind Kind
	loop Loop
}

// entry returns a copy of the held pair and kind's index in it.
func (s *Slot) entry(kind Kind) (p [2]heldLoop, i int) {
	if cur := s.held.Load(); cur != nil {
		p = *cur
	}
	if kind != KindMPL {
		i = 1
	}
	return p, i
}

// Attach installs the loop build returns. build runs only once the
// slot is known to accept kind: constructors act on the gate (they
// install partitions), so a refused attach leaves the gate untouched.
func (s *Slot) Attach(kind Kind, build func() (Loop, error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, i := s.entry(kind)
	if h := p[i]; h.loop != nil && h.kind != kind {
		return fmt.Errorf("controller: the %s and the %s both write the class partition; detach the %s first", kind, h.kind, h.kind)
	}
	l, err := build()
	if err != nil {
		return err
	}
	p[i] = heldLoop{kind, l}
	s.held.Store(&p)
	return nil
}

// Detach removes the held loop of the given kind and returns it; when
// no loop of that kind is held it returns nil and changes nothing.
func (s *Slot) Detach(kind Kind) Loop {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, i := s.entry(kind)
	h := p[i]
	if h.kind != kind {
		return nil
	}
	p[i] = heldLoop{}
	s.held.Store(&p)
	return h.loop
}

// Loop returns the held loop of the given kind (nil when none).
func (s *Slot) Loop(kind Kind) Loop {
	if p, i := s.entry(kind); p[i].kind == kind {
		return p[i].loop
	}
	return nil
}

// Observe feeds one completion to the held loops, if any.
func (s *Slot) Observe(it *core.Item) {
	if p := s.held.Load(); p != nil {
		for _, h := range p {
			if h.loop != nil {
				h.loop.Observe(it)
			}
		}
	}
}
