package des

import (
	"fmt"
	"time"
)

// Server is a contended resource with integer capacity — a disk, a pool
// of CPU cores, a BMC's request slots. Processes Acquire units, hold
// them while doing (virtual-time) work, and Release them. Waiters are
// served FIFO; a large request at the head of the queue blocks smaller
// ones behind it (no overtaking), which models fair queueing.
//
// Server also integrates busy capacity over virtual time so experiments
// can report per-device utilization and busy time.
type Server struct {
	sim       *Sim
	name      string
	capacity  int
	available int
	waiters   []*serverWaiter

	lastChange time.Duration
	busyInt    float64 // integral of (capacity-available) dt, in unit·seconds
	acquires   int64
	waited     time.Duration // total time processes spent queued
}

type serverWaiter struct {
	n     int
	wake  chan struct{}
	since time.Duration
}

// NewServer creates a resource with the given capacity attached to s.
func (s *Sim) NewServer(name string, capacity int) *Server {
	if capacity <= 0 {
		panic(fmt.Sprintf("des: server %q capacity must be positive, got %d", name, capacity))
	}
	return &Server{sim: s, name: name, capacity: capacity, available: capacity}
}

// Name reports the server's name.
func (r *Server) Name() string { return r.name }

func (r *Server) accountLocked(now time.Duration) {
	busy := r.capacity - r.available
	r.busyInt += float64(busy) * (now - r.lastChange).Seconds()
	r.lastChange = now
}

// Acquire obtains n units, blocking in virtual time until available.
// It panics if n exceeds the server's capacity (the request could never
// be satisfied).
func (r *Server) Acquire(p *Proc, n int) {
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic(fmt.Sprintf("des: acquire %d exceeds capacity %d of %q", n, r.capacity, r.name))
	}
	s := r.sim
	s.mu.Lock()
	r.acquires++
	if r.available >= n && len(r.waiters) == 0 {
		r.accountLocked(s.now)
		r.available -= n
		s.mu.Unlock()
		return
	}
	w := &serverWaiter{n: n, wake: make(chan struct{}, 1), since: s.now}
	r.waiters = append(r.waiters, w)
	s.blockLocked()
	s.mu.Unlock()
	<-w.wake
}

// Release returns n units and grants them to queued waiters in FIFO
// order.
func (r *Server) Release(n int) {
	if n <= 0 {
		return
	}
	s := r.sim
	s.mu.Lock()
	r.accountLocked(s.now)
	r.available += n
	if r.available > r.capacity {
		s.mu.Unlock()
		panic(fmt.Sprintf("des: release overflows capacity of %q", r.name))
	}
	for len(r.waiters) > 0 && r.waiters[0].n <= r.available {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.available -= w.n
		r.waited += s.now - w.since
		s.runnable++
		w.wake <- struct{}{}
	}
	s.mu.Unlock()
}

// Use acquires n units, holds them for d of virtual time, and releases
// them. This is the common "do work on a device" pattern.
func (r *Server) Use(p *Proc, n int, d time.Duration) {
	r.Acquire(p, n)
	p.Wait(d)
	r.Release(n)
}

// ServerStats is a snapshot of a Server's accounting.
type ServerStats struct {
	Name        string
	Capacity    int
	Acquires    int64
	BusySeconds float64       // integral of busy units over time (unit·s)
	Waited      time.Duration // total queueing delay experienced
	Utilization float64       // BusySeconds / (capacity · elapsed)
}

// Stats reports accounting as of the current virtual time.
func (r *Server) Stats() ServerStats {
	s := r.sim
	s.mu.Lock()
	defer s.mu.Unlock()
	r.accountLocked(s.now)
	st := ServerStats{
		Name:        r.name,
		Capacity:    r.capacity,
		Acquires:    r.acquires,
		BusySeconds: r.busyInt,
		Waited:      r.waited,
	}
	if el := s.now.Seconds(); el > 0 {
		st.Utilization = r.busyInt / (float64(r.capacity) * el)
	}
	return st
}
