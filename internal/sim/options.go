package sim

// Option configures an engine at construction. Engine construction is
// uniform across the harnesses: NewEngine(opts...) and Pool.NewEngine accept
// the same options, so labels, elision toggles, and close observers are
// fixed before the first event is scheduled and the engine carries no
// mutable configuration surface.
type Option func(*config)

type config struct {
	label   string
	noElide bool
	onClose []func(Engine)
}

// WithLabel names the engine for stats output and diagnostics.
func WithLabel(label string) Option {
	return func(c *config) { c.label = label }
}

// WithElision enables or disables the coroutine resume fast path
// (Sleep/InlineCharge consuming the next event in place). Elision is on by
// default; the simulated timeline is identical either way — equivalence
// tests construct one engine of each to pin elided and parked execution to
// the same history.
func WithElision(enabled bool) Option {
	return func(c *config) { c.noElide = !enabled }
}

// OnClose registers fn as a close hook at construction: it runs exactly once
// as the engine shuts down, before coroutines are unwound, with every
// counter final but the registry and label still readable. Equivalent to
// eng.Hooks().OnClose(fn) after construction.
func OnClose(fn func(Engine)) Option {
	return func(c *config) { c.onClose = append(c.onClose, fn) }
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}
