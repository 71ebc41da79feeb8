package des

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestSecondsConversion(t *testing.T) {
	cases := []struct {
		in   float64
		want time.Duration
	}{
		{0, 0},
		{1, time.Second},
		{0.5, 500 * time.Millisecond},
		{4.29, 4290 * time.Millisecond},
	}
	for _, c := range cases {
		if got := Seconds(c.in); got != c.want {
			t.Errorf("Seconds(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestEmptySimRuns(t *testing.T) {
	if err := New().Run(); err != nil {
		t.Fatalf("empty sim: %v", err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	s := New()
	if err := s.Run(); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := s.Run(); err == nil {
		t.Fatal("second Run succeeded, want error")
	}
}

func TestSingleProcessWaitAdvancesClock(t *testing.T) {
	s := New()
	var end time.Duration
	s.Spawn("p", func(p *Proc) {
		p.Wait(3 * time.Second)
		p.Wait(2 * time.Second)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 5*time.Second {
		t.Fatalf("process ended at %v, want 5s", end)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("sim clock at %v, want 5s", s.Now())
	}
}

func TestNegativeWaitTreatedAsZero(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Proc) {
		p.Wait(-time.Second)
		if p.Now() != 0 {
			t.Errorf("clock moved on negative wait: %v", p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelProcessesOverlap(t *testing.T) {
	// Two processes each waiting 10s in parallel: total virtual time 10s.
	s := New()
	for i := 0; i < 2; i++ {
		s.Spawn("p", func(p *Proc) { p.Wait(10 * time.Second) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("parallel waits took %v of virtual time, want 10s", s.Now())
	}
}

func TestEventOrderDeterministic(t *testing.T) {
	s := New()
	var order []int
	delays := []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second}
	for i, d := range delays {
		i, d := i, d
		s.Spawn("p", func(p *Proc) {
			p.Wait(d)
			order = append(order, i)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	s := New()
	var childEnd time.Duration
	s.Spawn("parent", func(p *Proc) {
		p.Wait(time.Second)
		p.Spawn("child", func(c *Proc) {
			c.Wait(2 * time.Second)
			childEnd = c.Now()
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != 3*time.Second {
		t.Fatalf("child ended at %v, want 3s", childEnd)
	}
}

func TestServerSerializesWhenCapacityOne(t *testing.T) {
	s := New()
	disk := s.NewServer("disk", 1)
	ends := make([]time.Duration, 3)
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn("p", func(p *Proc) {
			disk.Use(p, 1, 10*time.Second)
			ends[i] = p.Now()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 30*time.Second {
		t.Fatalf("3 serialized 10s jobs finished at %v, want 30s", s.Now())
	}
}

func TestServerParallelWithinCapacity(t *testing.T) {
	s := New()
	cpu := s.NewServer("cpu", 4)
	for i := 0; i < 4; i++ {
		s.Spawn("p", func(p *Proc) { cpu.Use(p, 1, 10*time.Second) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("4 jobs on 4-way server finished at %v, want 10s", s.Now())
	}
}

func TestServerAcquireBeyondCapacityPanics(t *testing.T) {
	s := New()
	srv := s.NewServer("x", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Acquire beyond capacity did not panic")
		}
	}()
	srv.Acquire(&Proc{sim: s}, 3)
}

func TestServerFIFONoOvertaking(t *testing.T) {
	// A big request queued first must not be starved by small requests
	// that could fit.
	s := New()
	srv := s.NewServer("srv", 2)
	var bigDone, smallDone time.Duration
	s.Spawn("holder", func(p *Proc) {
		srv.Acquire(p, 2)
		p.Wait(10 * time.Second)
		srv.Release(2)
	})
	s.Spawn("big", func(p *Proc) {
		p.Wait(time.Second) // queue second
		srv.Acquire(p, 2)
		p.Wait(5 * time.Second)
		srv.Release(2)
		bigDone = p.Now()
	})
	s.Spawn("small", func(p *Proc) {
		p.Wait(2 * time.Second) // queue third
		srv.Acquire(p, 1)
		p.Wait(time.Second)
		srv.Release(1)
		smallDone = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if bigDone != 15*time.Second {
		t.Fatalf("big done at %v, want 15s", bigDone)
	}
	if smallDone != 16*time.Second {
		t.Fatalf("small done at %v, want 16s (after big, FIFO)", smallDone)
	}
}

func TestServerUtilization(t *testing.T) {
	s := New()
	srv := s.NewServer("disk", 1)
	s.Spawn("p", func(p *Proc) {
		srv.Use(p, 1, 5*time.Second)
		p.Wait(5 * time.Second) // idle
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Utilization < 0.49 || st.Utilization > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", st.Utilization)
	}
	if st.BusySeconds < 4.99 || st.BusySeconds > 5.01 {
		t.Fatalf("busy = %v, want ~5", st.BusySeconds)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New()
	srv := s.NewServer("srv", 1)
	s.Spawn("p1", func(p *Proc) {
		srv.Acquire(p, 1)
		// never released; p2 deadlocks
	})
	s.Spawn("p2", func(p *Proc) {
		p.Wait(time.Second)
		srv.Acquire(p, 1)
	})
	err := s.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestGroupJoin(t *testing.T) {
	s := New()
	var joined time.Duration
	s.Spawn("parent", func(p *Proc) {
		g := GoEach(p, 3, "child", func(cp *Proc, i int) {
			cp.Wait(time.Duration(i+1) * time.Second)
		})
		g.Join(p)
		joined = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != 3*time.Second {
		t.Fatalf("join at %v, want 3s (slowest child)", joined)
	}
}

func TestGroupJoinAlreadyZero(t *testing.T) {
	s := New()
	ok := false
	s.Spawn("p", func(p *Proc) {
		g := s.NewGroup()
		g.Join(p) // must not block
		ok = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Join on zero group blocked")
	}
}

func TestGroupNegativePanics(t *testing.T) {
	s := New()
	g := s.NewGroup()
	defer func() {
		if recover() == nil {
			t.Fatal("negative group did not panic")
		}
	}()
	g.Add(-1)
}

func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	// 8 items of 10s each through 2 workers: 40s of virtual time.
	s := New()
	var elapsed time.Duration
	s.Spawn("driver", func(p *Proc) {
		WorkerPool(p, 8, 2, "w", func(wp *Proc, item int) {
			wp.Wait(10 * time.Second)
		})
		elapsed = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 40*time.Second {
		t.Fatalf("pool finished at %v, want 40s", elapsed)
	}
}

func TestWorkerPoolProcessesAllItems(t *testing.T) {
	s := New()
	var n int64
	s.Spawn("driver", func(p *Proc) {
		WorkerPool(p, 100, 7, "w", func(wp *Proc, item int) {
			atomic.AddInt64(&n, 1)
			wp.Wait(time.Millisecond)
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("processed %d items, want 100", n)
	}
}

func TestWorkerPoolZeroItems(t *testing.T) {
	s := New()
	s.Spawn("driver", func(p *Proc) {
		WorkerPool(p, 0, 4, "w", func(wp *Proc, item int) {
			t.Error("worker ran with zero items")
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerPoolMoreWorkersThanItems(t *testing.T) {
	s := New()
	s.Spawn("driver", func(p *Proc) {
		WorkerPool(p, 3, 16, "w", func(wp *Proc, item int) { wp.Wait(time.Second) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != time.Second {
		t.Fatalf("3 items / 16 workers took %v, want 1s", s.Now())
	}
}

func TestConcurrencySpeedupEmerges(t *testing.T) {
	// The pattern behind Fig 15: N independent queries, each a mix of
	// serialized disk time and parallel CPU time. Sequential vs pooled.
	run := func(workers int) time.Duration {
		s := New()
		disk := s.NewServer("disk", 4)
		var elapsed time.Duration
		s.Spawn("driver", func(p *Proc) {
			WorkerPool(p, 32, workers, "q", func(wp *Proc, item int) {
				disk.Use(wp, 1, 100*time.Millisecond) // I/O
				wp.Wait(300 * time.Millisecond)       // parallel processing
			})
			elapsed = p.Now()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	seq := run(1)
	con := run(8)
	if seq <= con {
		t.Fatalf("sequential (%v) not slower than concurrent (%v)", seq, con)
	}
	speedup := float64(seq) / float64(con)
	if speedup < 3 || speedup > 9 {
		t.Fatalf("speedup = %.2f, want within [3,9]", speedup)
	}
}
