// Package tsdb is a viewmutate fixture shaped like the real storage
// engine: view.go owns the copy-on-write constructors and may mutate
// views freely; every other file must treat views as immutable. Only
// commit (and the constructors) may publish one, in view.go too.
package tsdb

// commit is the one path a derived view takes to readers.
func (d *DB) commit(derive func(*dbView) *dbView) {
	d.live.Store(derive(d.live.Load()))
}

func (d *DB) publish(v *dbView) {
	d.live.Store(v) // want "view published outside commit"
}

type shard struct {
	points int64
}

type dbView struct {
	epoch  int64
	shards map[int64]*shard
	index  map[string]int
}

// deriveView is the legitimate copy-on-write layer: writes through a
// view inside view.go are the constructors doing their job.
func deriveView(base *dbView) *dbView {
	nv := *base
	nv.epoch++
	nv.index = make(map[string]int, len(base.index))
	for k, v := range base.index {
		nv.index[k] = v
	}
	return &nv
}
