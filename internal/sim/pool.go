package sim

import "iter"

// Pool recycles coroutine hosts across engines. A fleet worker sweeping many
// seeds creates thousands of short-lived coroutines; without a pool each one
// is a fresh iter.Pull, and a fresh Pull costs 11 allocations (~336 B, about
// 1 µs) plus a goroutine whose stack starts cold. A pooled engine instead
// re-arms a warm host — one long-lived Pull, parked between bodies with its
// grown stack — for each Engine.Go, so re-arming allocates nothing.
//
// A Pool is confined to one goroutine, the same one that drives the engines
// created from it: the fleet worker (or test) that owns the pool must create
// engines with Pool.NewEngine, drive them, Close them, and finally Close the
// pool. Engines of the same pool may be live concurrently only in the trivial
// sense of existing; they are still driven one at a time by the owner.
//
// Pooling is invisible to the simulation: which Pull hosts a coroutine
// body is not observable from simulated code (the strict hand-off discipline
// means at most one body runs at a time regardless), so a pooled run's
// timeline, traces, and fingerprints are byte-identical to an unpooled run.
// The lockstep property test and FuzzPooledVsUnpooled pin exactly that.
type Pool struct {
	free   []*spare
	closed bool

	// Stats counts pool activity. These are host-side numbers: they depend
	// on fleet scheduling (which worker's pool served which seed), so they
	// must never feed a determinism fingerprint.
	Stats struct {
		Spawned uint64 // fresh hosts (one iter.Pull each) created through the pool
		Reused  uint64 // Engine.Go calls served by a warm host
	}
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// NewEngine returns a reference sequential engine whose coroutine hosts are
// drawn from (and returned to) the pool. A nil *Pool is valid and yields
// a plain unpooled engine, so call sites can thread an optional pool without
// branching.
func (p *Pool) NewEngine(opts ...Option) Engine {
	if p != nil && p.closed {
		panic("sim: NewEngine on closed Pool")
	}
	return newSeqEngine(p, buildConfig(opts))
}

// Idle reports how many warm hosts are parked in the pool right now.
func (p *Pool) Idle() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}

// Close stops every idle pooled host. Engines created from the pool must be
// Closed first — Close only reaps hosts that have been returned. Close is
// idempotent; a closed pool cannot create engines.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	for i, s := range p.free {
		s.stop()
		p.free[i] = nil
	}
	p.free = nil
}

// spawnReq is one re-arm request: run fn as coroutine c.
type spawnReq struct {
	c  *Coroutine
	fn func(*Coroutine)
}

// spare is one long-lived iter.Pull that hosts coroutine bodies one after
// another. Between bodies it is parked in its final yield; req holds the
// armed body until the next dispatch resumes the host into its next loop
// iteration.
type spare struct {
	next func() (struct{}, bool)
	stop func()
	req  spawnReq
}

// launch binds c to a pooled host — warm if one is idle, fresh otherwise —
// and arms it with fn. The coroutine stays dormant until its first dispatch,
// exactly like an unpooled one.
func (p *Pool) launch(c *Coroutine, fn func(*Coroutine)) {
	var s *spare
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.Stats.Reused++
	} else {
		s = new(spare)
		s.next, s.stop = iter.Pull(s.loop)
		p.Stats.Spawned++
	}
	s.req = spawnReq{c, fn}
	c.next = s.next
	c.spare = s
}

// loop is the host's sequence: run the armed body, then yield as its final
// hand-off, until stop makes that yield report false. Each run call returns
// when its coroutine finishes or is killed.
func (s *spare) loop(yield func(struct{}) bool) {
	for {
		req := s.req
		s.req = spawnReq{}
		req.c.yield = yield
		req.c.run(req.fn)
		if !yield(struct{}{}) {
			return
		}
	}
}

// put returns a finished coroutine's host to the pool for reuse. Called from
// the engine side only, after the final hand-off, so the host is parked in
// its final yield. After Close the host is stopped instead of pooled.
func (p *Pool) put(s *spare) {
	if p.closed {
		s.stop()
		return
	}
	p.free = append(p.free, s)
}
