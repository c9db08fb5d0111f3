package machine

import "schedact/internal/sim"

// Costs is the primitive cost table for the simulated machine and the
// systems built on it. The two hardware primitives the paper publishes for
// the CVAX Firefly anchor the table: a procedure call takes about 7 µs and a
// kernel trap about 19 µs (§2.1). The remaining entries decompose the
// composite paths of each thread system into primitive charges; they are
// calibrated (see EXPERIMENTS.md) so that the composite microbenchmark
// latencies land on the paper's Table 1/4 values, and are then held fixed
// for every application experiment.
//
// All values are virtual durations.
type Costs struct {
	// Hardware primitives (paper §2.1).
	ProcCall sim.Duration // procedure call: 7 µs on the Firefly
	Trap     sim.Duration // kernel trap: 19 µs on the Firefly
	IPI      sim.Duration // inter-processor interrupt delivery
	TAS      sim.Duration // atomic test-and-set (spin-lock grab, uncontended)

	// FastThreads user-level thread operations (per-component; the Null
	// Fork path sums to ~34 µs and Signal-Wait to ~37 µs on the original
	// system).
	UTAlloc  sim.Duration // TCB+stack allocation from the per-VP free list
	UTInit   sim.Duration // TCB/stack initialization
	UTEnq    sim.Duration // ready-list enqueue
	UTDeq    sim.Duration // ready-list dequeue
	UTSwitch sim.Duration // user-level context switch (register save/restore)
	UTFree   sim.Duration // TCB free-list return
	UTCond   sim.Duration // condition-variable bookkeeping per operation

	// Topaz kernel-thread operations (in-kernel work; every operation also
	// pays Trap on entry).
	KTForkWork   sim.Duration // allocate+init thread control block and stacks
	KTExitWork   sim.Duration // reap a finished kernel thread
	KTSignalWork sim.Duration // wake a blocked kernel thread
	KTBlockWork  sim.Duration // queue the caller on a kernel object
	KTDispatch   sim.Duration // kernel-level context switch / dispatcher pass

	// Ultrix-style process operations.
	ProcForkWork   sim.Duration // duplicate process state (address space, descriptors)
	ProcExitWork   sim.Duration // tear down a process
	ProcSignalWork sim.Duration // deliver a signal to a process
	ProcBlockWork  sim.Duration // block a process in the kernel
	ProcDispatch   sim.Duration // process context switch (address space switch)

	// Scheduler-activation machinery.
	SAAccount     sim.Duration // increment/decrement the busy-thread count and test whether the kernel must be told (§5.1: adds ~3 µs to Null Fork)
	SAResumeCheck sim.Duration // test whether a resumed thread was preempted, restoring condition codes if so (§5.1: part of the +5 µs on Signal-Wait)
	SAUpcallWork  sim.Duration // kernel side of one upcall: recycle/create an activation, set up the user-level entry (the prototype's untuned Modula-2+ path; see §5.2)
	SANotifyWork  sim.Duration // kernel side of an address-space→kernel notification (Table 3 calls)

	// Critical-section ablation (§4.3/§5.1): with the zero-overhead
	// code-copy technique this is 0 on the common path; the ablation
	// profile instead charges this per critical section entered+exited.
	ExplicitCSFlag sim.Duration

	// Devices and quanta.
	DiskLatency sim.Duration // paper §5.3: a cache miss "simply blocks in the kernel for 50 msec"
	Quantum     sim.Duration // kernel time-slice quantum for oblivious scheduling
}

// DefaultCosts returns the calibrated cost profile for the paper's prototype
// implementation: user-level operations match original FastThreads, kernel
// operations match Topaz, and the upcall path carries the prototype's
// unoptimized overhead (§5.2 reports kernel-mediated signal-wait at 2.4 ms).
// All application experiments (Figures 1–2, Table 5) use this profile.
func DefaultCosts() *Costs {
	return &Costs{
		ProcCall: sim.Us(7),
		Trap:     sim.Us(19),
		IPI:      sim.Us(10),
		TAS:      sim.Us(0.5),

		UTAlloc:  sim.Us(2),
		UTInit:   sim.Us(3),
		UTEnq:    sim.Us(2),
		UTDeq:    sim.Us(2),
		UTSwitch: sim.Us(5),
		UTFree:   sim.Us(1),
		UTCond:   sim.Us(13.25),

		KTForkWork:   sim.Us(520),
		KTExitWork:   sim.Us(79),
		KTSignalWork: sim.Us(178),
		KTBlockWork:  sim.Us(165),
		KTDispatch:   sim.Us(60),

		ProcForkWork:   sim.Us(9776),
		ProcExitWork:   sim.Us(300),
		ProcSignalWork: sim.Us(822),
		ProcBlockWork:  sim.Us(800),
		ProcDispatch:   sim.Us(180),

		SAAccount:     sim.Us(1.5),
		SAResumeCheck: sim.Us(2),
		SAUpcallWork:  sim.Us(2160),
		SANotifyWork:  sim.Us(40),

		ExplicitCSFlag: sim.Us(2),

		DiskLatency: sim.Ms(50),
		Quantum:     sim.Ms(100),
	}
}

// TunedCosts returns the same profile with the upcall path reduced to
// kernel-thread scale, modelling the assembler-tuned production
// implementation the paper argues would be achievable (§5.2: "we expect
// that, if tuned, our upcall performance would be commensurate with Topaz
// kernel thread performance").
func TunedCosts() *Costs {
	c := DefaultCosts()
	c.SAUpcallWork = sim.Us(100)
	return c
}
