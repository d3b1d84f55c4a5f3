// Package sctest seeds snapshotcoverage-analyzer violations: mutable
// fields outside a Snapshot/Restore pair, reasonless and reasoned
// snap:ignore annotations, and capture delegation to a type that has a
// Snapshot but no Restore.
package sctest

// Counter pairs Snapshot/Restore but rolls back only n.
type Counter struct {
	n    int
	hits int // want "mutable field Counter.hits is outside the Snapshot/Restore pair"
	// cfg is written only by the constructor, so it is configuration,
	// not rollback state: no diagnostic.
	cfg int
	// want "annotation without a reason; state why the field is safe"
	note int // snap:ignore
	// seen carries a reasoned exemption: no diagnostic.
	seen int // snap:ignore monotone dedup bookkeeping survives rollback by design
}

func NewCounter(cfg int) *Counter { return &Counter{cfg: cfg} }

func (c *Counter) Step() {
	c.n++
	c.hits++
	c.note = c.n
	c.seen++
}

func (c *Counter) Snapshot() int { return c.n }
func (c *Counter) Restore(v int) { c.n = v }

// clock has a parameterless Snapshot but no Restore: not a pair itself,
// but delegating to it from another capture is flagged.
type clock struct{ t int }

func (c *clock) tick()         { c.t++ }
func (c *clock) Snapshot() int { return c.t }

// Box delegates part of its capture to clock.Snapshot.
type Box struct {
	cl clock
	v  int
}

func (b *Box) Poke() {
	b.v++
	b.cl.tick()
}

func (b *Box) Snapshot() (int, int) {
	return b.cl.Snapshot(), b.v // want "capture delegates to clock.Snapshot, but clock has no Restore"
}

func (b *Box) Restore(cl, v int) {
	b.cl.t = cl
	b.v = v
}

// builder's snapshot takes a parameter, so it is a checkpoint builder,
// not a rollback pair: the analyzer must not pair it with restore.
type builder struct {
	depth int
	extra int
}

func (s *builder) grow()              { s.depth++; s.extra++ }
func (s *builder) snapshot(d int) int { return s.depth + d }
func (s *builder) restore(d int)      { s.depth = d }
