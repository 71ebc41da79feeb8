package tsdb

import "sync/atomic"

type DB struct {
	view *dbView
	live atomic.Pointer[dbView]
}

// Open may install the first view: nobody can read the DB yet.
func Open() *DB {
	d := &DB{}
	d.live.Store(&dbView{})
	return d
}

func (d *DB) spillDirect(v *dbView) {
	d.live.Store(v) // want "view published outside commit"
}

func (d *DB) swapDirect(v *dbView) {
	d.live.Swap(v)                          // want "view published outside commit"
	d.live.CompareAndSwap(d.live.Load(), v) // want "view published outside commit"
}

// A commit on another type is not the DB's commit.
type replica struct{ live atomic.Pointer[dbView] }

func (r *replica) commit(v *dbView) {
	r.live.Store(v) // want "view published outside commit"
}

func (d *DB) badMutations(v *dbView) {
	v.epoch++                 // want "write through a dbView outside view.go"
	v.index["cpu"] = 1        // want "write through a dbView outside view.go"
	delete(v.index, "cpu")    // want "write through a dbView outside view.go"
	d.view.epoch = 7          // want "write through a dbView outside view.go"
	v.shards[0] = &shard{}    // want "write through a dbView outside view.go"
	v.shards[0].points = 1    // want "write through a dbView outside view.go"
	(*v).epoch = 9            // want "write through a dbView outside view.go"
	d.view.shards[1].points-- // want "write through a dbView outside view.go"
}

func (d *DB) allowed(v *dbView) int64 {
	// Reads are fine, as are writes to locals and batch-owned clones
	// whose chain does not pass through a view.
	sh := v.shards[0]
	sh.points = 42
	n := v.epoch
	n++
	return n + sh.points
}

func (d *DB) suppressed(v *dbView) {
	//lint:ignore viewmutate fixture demonstrates a documented escape
	v.epoch++
}
