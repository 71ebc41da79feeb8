// Package tsdb is the ctxpropagate fixture for the storage engine: a
// query's worker pool runs under the consumer's context, so a worker
// goroutine that ignores it keeps scanning after the consumer left.
package tsdb

import (
	"context"
	"sync"
)

type execState struct{ done <-chan struct{} }

func (st *execState) run() {}

func badPool(ctx context.Context, states []execState) {
	var wg sync.WaitGroup
	for w := range states {
		wg.Add(1)
		go func() { // want "goroutine ignores the in-scope context.Context"
			defer wg.Done()
			states[w].run()
		}()
	}
	wg.Wait()
}

func goodPool(ctx context.Context, states []execState) {
	work := func(ctx context.Context, st *execState) {
		*st = execState{done: ctx.Done()}
		st.run()
	}
	var wg sync.WaitGroup
	for w := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(ctx, &states[w])
		}()
	}
	wg.Wait()
}
