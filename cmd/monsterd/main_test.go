package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"monster"
)

// A cycle that fails while serving (here every WAL append, the log
// being closed) must stop serve with that error, listeners included.
// main sends an error that is not a cancellation to log.Fatalf, so the
// process exits non-zero and a supervisor can restart it; a serve that
// kept its listeners up would block forever instead.
func TestServeStopsWhenLiveCollectionFails(t *testing.T) {
	sys, err := monster.NewSystem(monster.Config{Nodes: 2, Seed: 1, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, fail := context.WithCancelCause(context.Background())
	defer fail(nil)
	if err := sys.AdvanceCollecting(ctx, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := sys.DB.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		// No wal dir: the checkpoint loop would fail on the closed log
		// too and cancel ctx through fail, which is the path that
		// already stopped; this test is about the live loop's own error.
		done <- serve(ctx, fail, sys, 0, "127.0.0.1:0", "", "", 600)
	}()
	select {
	case err := <-done:
		if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("serve returned %v, want the failed cycle's error", err)
		}
		if context.Cause(ctx) != nil {
			t.Fatalf("serve stopped through fail (%v), want its own return", context.Cause(ctx))
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve still running 20 s after every write started failing")
	}
}
