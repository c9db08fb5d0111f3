package sim

// Pool recycles coroutine goroutines across engines. A fleet worker sweeping
// many seeds creates thousands of short-lived coroutines; without a pool each
// one is a fresh goroutine (spawn cost plus a cold 8 KiB stack that regrows
// on first deep call). A pooled engine instead re-arms a warm parked
// goroutine — with its grown stack — for each Engine.Go.
//
// A Pool is confined to one goroutine, the same one that drives the engines
// created from it: the fleet worker (or test) that owns the pool must create
// engines with Pool.NewEngine, drive them, Close them, and finally Close the
// pool. Engines of the same pool may be live concurrently only in the trivial
// sense of existing; they are still driven one at a time by the owner.
//
// Pooling is invisible to the simulation: which goroutine hosts a coroutine
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
		Spawned uint64 // fresh goroutines created through the pool
		Reused  uint64 // Engine.Go calls served by a warm goroutine
	}
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// NewEngine returns a reference sequential engine whose coroutine goroutines
// are drawn from (and returned to) the pool. A nil *Pool is valid and yields
// a plain unpooled engine, so call sites can thread an optional pool without
// branching.
func (p *Pool) NewEngine(opts ...Option) Engine {
	if p != nil && p.closed {
		panic("sim: NewEngine on closed Pool")
	}
	return newSeqEngine(p, buildConfig(opts))
}

// Idle reports how many warm goroutines are parked in the pool right now.
func (p *Pool) Idle() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}

// Close retires every idle pooled goroutine. Engines created from the pool
// must be Closed first — Close only reaps goroutines that have been returned.
// Close is idempotent; a closed pool cannot create engines.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	for i, s := range p.free {
		close(s.arm)
		p.free[i] = nil
	}
	p.free = nil
}

// spawnReq is one re-arm request: run fn as coroutine c.
type spawnReq struct {
	c  *Coroutine
	fn func(*Coroutine)
}

// spare is one warm goroutine parked between coroutine lifetimes. The arm
// channel is buffered so re-arming never blocks the engine side; the hand
// channel is the strict hand-off token channel every coroutine hosted on
// this goroutine reuses.
type spare struct {
	arm  chan spawnReq
	hand chan struct{}
}

// launch binds c to a pooled goroutine — warm if one is idle, freshly
// spawned otherwise — and arms it with fn. The coroutine stays dormant until
// its first dispatch, exactly like an unpooled one.
func (p *Pool) launch(c *Coroutine, fn func(*Coroutine)) {
	var s *spare
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.Stats.Reused++
	} else {
		s = &spare{arm: make(chan spawnReq, 1), hand: make(chan struct{})}
		p.Stats.Spawned++
		go s.loop()
	}
	c.hand = s.hand
	c.spare = s
	s.arm <- spawnReq{c, fn}
}

// loop hosts one coroutine body after another until the pool closes the arm
// channel. Each run call returns (rather than letting the goroutine exit)
// when its coroutine finishes or is killed.
func (s *spare) loop() {
	for req := range s.arm {
		req.c.run(req.fn)
	}
}

// put returns a finished coroutine's goroutine to the pool for reuse. Called
// from the engine side only, after the final hand-off, so the goroutine is
// guaranteed to be back at its arm receive. After Close the goroutine is
// retired instead of pooled.
func (p *Pool) put(s *spare) {
	if p.closed {
		close(s.arm)
		return
	}
	p.free = append(p.free, s)
}
