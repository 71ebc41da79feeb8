// Package des implements a small discrete-event simulation kernel with
// a process model, in the style of SimPy: simulated activities run as
// goroutines ("processes") that interact with virtual time through
// blocking primitives (Wait, resource Acquire/Release), and a kernel
// advances a virtual clock from event to event.
//
// The kernel is the substrate for the paper-scale performance
// experiments: real work (query execution, JSON encoding, compression)
// runs natively, while the time cost of modelled devices — HDD/SSD
// bandwidth, BMC response latency — is charged to the virtual clock. Concurrency effects (overlap, contention, queueing)
// then emerge from the process model instead of being computed with
// closed-form guesses.
//
// Scheduling model: the kernel delivers one timed event at a time and
// waits until every runnable process has blocked again before advancing
// the clock. Virtual timestamps are therefore deterministic; the
// interleaving of same-timestamp operations follows goroutine scheduling
// and must not be relied upon.
package des

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// ErrDeadlock is returned by Run when live processes remain but no
// timed event can ever wake them (all blocked on resources).
var ErrDeadlock = errors.New("des: deadlock: processes blocked with no pending events")

// Seconds converts a floating-point number of seconds into a Duration.
func Seconds(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}

type event struct {
	at   time.Duration
	seq  int64
	wake chan struct{}
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Sim is a discrete-event simulation. The zero value is not usable; use
// New.
type Sim struct {
	mu       sync.Mutex
	cond     *sync.Cond
	now      time.Duration
	events   eventHeap
	seq      int64
	runnable int // processes currently executing
	procs    int // live processes
	ran      bool
}

// New returns an empty simulation at virtual time zero.
func New() *Sim {
	s := &Sim{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Now reports the current virtual time (duration since simulation
// start). Safe to call from processes and from outside.
func (s *Sim) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Proc is the handle a process uses to interact with virtual time. A
// Proc is owned by exactly one goroutine and must not be shared.
type Proc struct {
	sim  *Sim
	name string
}

// Name reports the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.Now() }

// Spawn starts fn as a new simulation process. It may be called before
// Run (to set up the initial process population) or from inside a
// running process. fn's goroutine must interact with virtual time only
// through its *Proc.
func (s *Sim) Spawn(name string, fn func(p *Proc)) {
	s.mu.Lock()
	s.procs++
	s.runnable++
	s.mu.Unlock()
	p := &Proc{sim: s, name: name}
	go func() {
		defer s.exit()
		fn(p)
	}()
}

// Spawn starts a child process. Equivalent to p.Sim().Spawn.
func (p *Proc) Spawn(name string, fn func(p *Proc)) { p.sim.Spawn(name, fn) }

func (s *Sim) exit() {
	s.mu.Lock()
	s.procs--
	s.runnable--
	if s.runnable == 0 {
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// block marks the calling process as no longer runnable. Callers must
// hold s.mu.
func (s *Sim) blockLocked() {
	s.runnable--
	if s.runnable == 0 {
		s.cond.Signal()
	}
}

// Wait suspends the process for d of virtual time. Negative durations
// are treated as zero; a zero wait still yields to the kernel, which
// re-schedules the process at the same timestamp (after already-queued
// same-time events).
func (p *Proc) Wait(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.mu.Lock()
	wake := make(chan struct{}, 1)
	s.seq++
	heap.Push(&s.events, &event{at: s.now + d, seq: s.seq, wake: wake})
	s.blockLocked()
	s.mu.Unlock()
	<-wake
}

// Run executes the simulation until every process has finished. It
// returns ErrDeadlock if processes remain alive but none can ever be
// woken. Run must be called at most once and not from inside a process.
func (s *Sim) Run() error {
	s.mu.Lock()
	if s.ran {
		s.mu.Unlock()
		return errors.New("des: Run called twice")
	}
	s.ran = true
	for {
		for s.runnable > 0 {
			s.cond.Wait()
		}
		if len(s.events) == 0 {
			procs := s.procs
			s.mu.Unlock()
			if procs > 0 {
				return fmt.Errorf("%w (%d live)", ErrDeadlock, procs)
			}
			return nil
		}
		ev := heap.Pop(&s.events).(*event)
		if ev.at < s.now {
			// Cannot happen: events are scheduled at >= now.
			panic("des: event scheduled in the past")
		}
		s.now = ev.at
		s.runnable++
		ev.wake <- struct{}{}
	}
}
