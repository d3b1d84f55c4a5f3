package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/ioa"
)

// This file holds the outside-in instruments of the traced run: forwarding
// wrappers that time the calls the program makes into a layer's public
// interface, and the attribution table built from their tallies. Nothing
// here changes what a wrapped call returns, so state counts, dedup keys
// and checkpoint bytes stay identical to unwrapped runs (the harness
// asserts this on every traced run).

// layer tallies one layer's calls and busy time. It is safe for
// concurrent use: the explorer calls wrapped automata and monitors from
// every worker.
type layer struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (l *layer) since(t0 time.Time) {
	l.calls.Add(1)
	l.ns.Add(int64(time.Since(t0)))
}

// perCall is the mean busy time per call in ns; 0 before any call.
func (l *layer) perCall() float64 {
	n := l.calls.Load()
	if n == 0 {
		return 0
	}
	return float64(l.ns.Load()) / float64(n)
}

// timedAutomaton forwards every call to the wrapped automaton, adding the
// time spent in Step to step and in Enabled and Signature (which the
// composition asks for on every step) to other.
type timedAutomaton struct {
	ioa.Automaton
	step, other *layer
}

func (a timedAutomaton) Step(s ioa.State, act ioa.Action) (ioa.State, error) {
	t0 := time.Now()
	next, err := a.Automaton.Step(s, act)
	a.step.since(t0)
	return next, err
}

func (a timedAutomaton) Enabled(s ioa.State) []ioa.Action {
	t0 := time.Now()
	out := a.Automaton.Enabled(s)
	a.other.since(t0)
	return out
}

func (a timedAutomaton) Signature() ioa.Signature {
	t0 := time.Now()
	out := a.Automaton.Signature()
	a.other.since(t0)
	return out
}

// protocolLayer times both automata of a protocol.
type protocolLayer struct{ step, other layer }

func (l *protocolLayer) wrap(p core.Protocol) core.Protocol {
	p.T = timedAutomaton{Automaton: p.T, step: &l.step, other: &l.other}
	p.R = timedAutomaton{Automaton: p.R, step: &l.step, other: &l.other}
	return p
}

// self is the layer's total busy time.
func (l *protocolLayer) self() time.Duration {
	return time.Duration(l.step.ns.Load() + l.other.ns.Load())
}

// timedMonitor forwards to an explorer safety monitor, timing Step. It
// forwards both fingerprint fast paths so dedup keys are byte-identical
// to the unwrapped monitor's.
type timedMonitor struct {
	inner explore.Monitor
	l     *layer
}

func (m timedMonitor) Step(a ioa.Action) (explore.Monitor, *explore.Violation) {
	t0 := time.Now()
	next, v := m.inner.Step(a)
	m.l.since(t0)
	return timedMonitor{inner: next, l: m.l}, v
}

func (m timedMonitor) Fingerprint() string { return m.inner.Fingerprint() }

func (m timedMonitor) AppendFingerprint(dst []byte) []byte {
	if af, ok := m.inner.(ioa.AppendFingerprinter); ok {
		return af.AppendFingerprint(dst)
	}
	return append(dst, m.inner.Fingerprint()...)
}

func (m timedMonitor) AppendCanonFingerprint(dst []byte, c *ioa.Canon) []byte {
	if cf, ok := m.inner.(ioa.CanonFingerprinter); ok {
		return cf.AppendCanonFingerprint(dst, c)
	}
	return m.AppendFingerprint(dst)
}

// latencyClock stamps send_msg → receive_msg per message from inside the
// protocol automata it wraps, keeping the delivery times too. The
// loopback backend drives both endpoints from one goroutine, so it needs
// no locking.
type latencyClock struct {
	base time.Time
	open map[ioa.Message]time.Duration
	// lat[i] is the latency of the i-th delivery in µs, at[i] its time
	// since base.
	lat []float64
	at  []time.Duration
}

func newLatencyClock(msgs int) *latencyClock {
	return &latencyClock{
		base: time.Now(),
		open: make(map[ioa.Message]time.Duration),
		lat:  make([]float64, 0, msgs),
		at:   make([]time.Duration, 0, msgs),
	}
}

// stampedAutomaton forwards to the wrapped automaton, stamping the
// message of every send_msg input and receive_msg output on the clock.
type stampedAutomaton struct {
	ioa.Automaton
	clock *latencyClock
}

func (a stampedAutomaton) Step(s ioa.State, act ioa.Action) (ioa.State, error) {
	switch act.Kind {
	case ioa.KindSendMsg:
		if _, dup := a.clock.open[act.Msg]; !dup {
			a.clock.open[act.Msg] = time.Since(a.clock.base)
		}
	case ioa.KindReceiveMsg:
		if t0, ok := a.clock.open[act.Msg]; ok {
			now := time.Since(a.clock.base)
			a.clock.lat = append(a.clock.lat, float64(now-t0)/1e3)
			a.clock.at = append(a.clock.at, now)
			delete(a.clock.open, act.Msg)
		}
	}
	return a.Automaton.Step(s, act)
}

func (c *latencyClock) wrap(p core.Protocol) core.Protocol {
	p.T = stampedAutomaton{Automaton: p.T, clock: c}
	p.R = stampedAutomaton{Automaton: p.R, clock: c}
	return p
}

// attribution is one workload's traced-run accounting: each layer's self
// time against the capacity the run had (wall time × busy goroutines).
type attribution struct {
	workload string
	wall     time.Duration
	threads  int
	rows     []attrRow
	gc       time.Duration
	overhead float64
}

type attrRow struct {
	name  string
	how   string
	calls int64
	self  time.Duration
}

func (a *attribution) add(name, how string, calls int64, self time.Duration) {
	a.rows = append(a.rows, attrRow{name: name, how: how, calls: calls, self: self})
}

func (a *attribution) capacity() float64 { return a.wall.Seconds() * float64(a.threads) }

// unattributed is 1 − Σ layer self time ÷ capacity: the share of the
// run that outside-in timing cannot see (for the explorer: dedup-key
// build, seen-set probes, frontier bookkeeping, channel steps, barrier
// idle time).
func (a *attribution) unattributed() float64 {
	var sum float64
	for _, r := range a.rows {
		sum += r.self.Seconds()
	}
	if a.capacity() == 0 {
		return 0
	}
	return 1 - sum/a.capacity()
}

func (a *attribution) print(w io.Writer) {
	fmt.Fprintf(w, "attribution %s: wall %.1f ms × %d thread(s)\n", a.workload, float64(a.wall.Microseconds())/1e3, a.threads)
	fmt.Fprintf(w, "  %-12s %-8s %12s %12s %7s\n", "layer", "timing", "calls", "self_ms", "share")
	for _, r := range a.rows {
		fmt.Fprintf(w, "  %-12s %-8s %12d %12.1f %6.1f%%\n", r.name, r.how, r.calls,
			float64(r.self.Microseconds())/1e3, 100*r.self.Seconds()/a.capacity())
	}
	fmt.Fprintf(w, "  %-12s %-8s %12s %12.1f %6.1f%%  (concurrent with the rows above; not in the sum)\n",
		"gc", "runtime", "-", float64(a.gc.Microseconds())/1e3, 100*a.gc.Seconds()/a.capacity())
	fmt.Fprintf(w, "  unattributed_share %.3f   trace_overhead_share %.3f\n", a.unattributed(), a.overhead)
}
