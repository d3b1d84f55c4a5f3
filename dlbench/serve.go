package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// serveBench is the set-up state of a loopback serving workload: one
// closed-loop client with an in-flight window, driving a protocol pair
// through transport.RunLoopback with the online DL/PL monitors judging.
type serveBench struct {
	proto core.Protocol
	cfg   transport.LoopbackConfig
	// inOrder requires delivery in minted order; otherwise every minted
	// message must be delivered exactly once, in any order.
	inOrder bool
}

const serveWindow = 8

// setupServe builds the serve workload (gbn n=8 w=3 over a clean FIFO
// link, 100k messages) or, with faults, the serve-faults workload
// (Stenning over a non-FIFO link with loss, reorder and corruption at
// rate 0.2, 50k messages). The seed drives the middlebox's fault and
// reorder choices; a clean FIFO link makes none, so serve is the same
// run for every seed.
func setupServe(seed int64, faults bool) (*serveBench, error) {
	cfg := transport.LoopbackConfig{Window: serveWindow, Seed: seed}
	name, n, w := "gbn", 8, 3
	if faults {
		name, n, w = "stenning", 0, 0
		plan, err := transport.ParseFaultPlan("loss,reorder,corrupt")
		if err != nil {
			return nil, err
		}
		plan.Rate = 0.2
		cfg.Faults, cfg.Msgs = plan, 50_000
	} else {
		cfg.FIFO, cfg.Msgs = true, 100_000
	}
	p, err := protocol.ByName(name, n, w)
	if err != nil {
		return nil, err
	}
	return &serveBench{proto: p, cfg: cfg, inOrder: !faults}, nil
}

// serveRun is one finished, checked loopback run.
type serveRun struct {
	res     *transport.LoopbackResult
	elapsed time.Duration
	clock   *latencyClock
}

func (r serveRun) goodput() float64 { return float64(len(r.res.Delivered)) / r.elapsed.Seconds() }

// serveChunk is how many consecutive deliveries one goodput and latency
// sample covers. Host noise comes in bursts of a fraction of a second;
// medians over many short stretches of every session shed those bursts,
// where a median over a handful of whole sessions does not. A chunk's
// p99 still has 50 samples beyond it.
const serveChunk = 5000

// chunks returns, per serveChunk consecutive deliveries, the goodput and
// the p50 and p99 send_msg → receive_msg latency in µs.
func (r serveRun) chunks() (rates, p50, p99 []float64) {
	at, lat := r.clock.at, r.clock.lat
	var from time.Duration
	for end := serveChunk; end <= len(at); end += serveChunk {
		to := at[end-1]
		rates = append(rates, serveChunk/(to-from).Seconds())
		p50 = append(p50, percentile(lat[end-serveChunk:end], 50))
		p99 = append(p99, percentile(lat[end-serveChunk:end], 99))
		from = to
	}
	return rates, p50, p99
}

// run drives one loopback session over p (the workload's protocol,
// possibly wrapped) and checks it: every message delivered, in minted
// order where required, with a clean verdict.
func (b *serveBench) run(p core.Protocol, keepLog bool) (serveRun, error) {
	clock := newLatencyClock(b.cfg.Msgs)
	cfg := b.cfg
	cfg.Protocol = clock.wrap(p)
	cfg.KeepLog = keepLog
	began := time.Now()
	res, err := transport.RunLoopback(cfg)
	run := serveRun{res: res, elapsed: time.Since(began), clock: clock}
	if err != nil {
		return run, err
	}
	if !res.Verdicts.Clean() || len(res.Violations) > 0 {
		return run, fmt.Errorf("unclean verdict: %s (%d violations)", res.Verdicts, len(res.Violations))
	}
	if len(res.Delivered) != cfg.Msgs {
		return run, fmt.Errorf("delivered %d of %d messages", len(res.Delivered), cfg.Msgs)
	}
	seen := make([]bool, cfg.Msgs+1)
	for i, m := range res.Delivered {
		k, ok := mintedIndex(m, cfg.Msgs)
		if !ok || seen[k] || (b.inOrder && k != i+1) {
			return run, fmt.Errorf("delivery %d is %q: not the next minted message", i, m)
		}
		seen[k] = true
	}
	if len(clock.lat) != cfg.Msgs {
		return run, fmt.Errorf("stamped %d latencies for %d messages", len(clock.lat), cfg.Msgs)
	}
	return run, nil
}

// mintedIndex parses a core.MessageMinter("m") label "m-k", 1 ≤ k ≤ n.
func mintedIndex(m ioa.Message, n int) (int, bool) {
	s := string(m)
	if len(s) < 3 || s[:2] != "m-" {
		return 0, false
	}
	k, err := strconv.Atoi(s[2:])
	return k, err == nil && k >= 1 && k <= n
}

// checked runs one session as cfg.Msgs attempted operations of r; a
// failed session fails every message it offered.
func (b *serveBench) checked(r *report, p core.Protocol, keepLog bool) (serveRun, bool) {
	r.attempted += int64(b.cfg.Msgs)
	run, err := b.run(p, keepLog)
	if err != nil {
		r.fail(int64(b.cfg.Msgs), err)
		return run, false
	}
	return run, true
}

func (b *serveBench) describe() string {
	return fmt.Sprintf("%s loopback, fifo %v, faults %s, 1 closed-loop client with window %d, %d messages per session",
		b.proto.Name, b.cfg.FIFO, b.cfg.Faults, serveWindow, b.cfg.Msgs)
}

func (b *serveBench) once(r *report) { b.checked(r, b.proto, false) }

// measure is the untraced run: one warm-up session, then sessions until
// the window closes. Goodput and latency are medians over the
// serveChunk-delivery stretches of all measured sessions.
func (b *serveBench) measure(window time.Duration, r *report) {
	b.once(r)
	var sessions, rates, p50, p99, whole []float64
	deadline := time.Now().Add(window)
	for len(sessions) < minReps || time.Now().Before(deadline) {
		run, ok := b.checked(r, b.proto, false)
		if ok {
			sessions = append(sessions, run.goodput())
			cr, c50, c99 := run.chunks()
			rates = append(rates, cr...)
			p50 = append(p50, c50...)
			p99 = append(p99, c99...)
			whole = append(whole, percentile(run.clock.lat, 99))
		}
		if !ok && time.Now().After(deadline) {
			break
		}
	}
	r.metric("throughput_per_s", median(rates), "1/s")
	r.metric("latency_p50_us", median(p50), "us")
	r.metric("latency_p99_us", median(p99), "us")
	r.note("goodput_msg_per_s %.1f 1/s (median over %d stretches of %d deliveries; %d sessions of %d messages, window %d, whole-session rates %.0f)",
		median(rates), len(rates), serveChunk, len(sessions), b.cfg.Msgs, serveWindow, sessions)
	// A whole session's p99 carries every host stall and GC pause of the
	// session; it is printed for reading but too unsteady to gate.
	r.note("whole-session p99 latency (not gated): %.1f us", whole)
}

// trace is the traced run: one untraced session for the runtime figures
// and the overhead baseline, one session with timed protocol automata
// and the global schedule kept, then the monitor, codec and middlebox
// channel work replayed over that schedule, each timed in bulk. It is a
// fixed amount of work, so it ignores the window.
func (b *serveBench) trace(_ time.Duration, r *report) {
	b.once(r)
	watch := watchRuntime()
	base, ok := b.checked(r, b.proto, false)
	rt := watch.finish()
	if !ok {
		return
	}
	var prot protocolLayer
	traced, ok := b.checked(r, prot.wrap(b.proto), true)
	if !ok {
		return
	}
	msgs := float64(b.cfg.Msgs)
	log := traced.res.Log
	a := &attribution{workload: r.workload, wall: traced.elapsed, threads: 1}
	a.add("protocol", "wrapped", prot.step.calls.Load(), prot.self())
	r.metric("protocol.steps", float64(prot.step.calls.Load()), "count")
	r.metric("protocol.step_ns", prot.step.perCall(), "ns")

	mons := transport.NewMonitors(b.cfg.FIFO && !b.cfg.Faults.Reorder, !b.cfg.Faults.Dup, nil)
	t0 := time.Now()
	for _, act := range log {
		mons.Observe(act)
	}
	monTime := time.Since(t0)
	if v := mons.Seal(); v.String() != traced.res.Verdicts.String() {
		r.fail(0, fmt.Errorf("replayed monitors judged %s, the live session %s", v, traced.res.Verdicts))
	}
	a.add("monitors", "replay", int64(len(log)), monTime)
	r.metric("monitor.observes", float64(len(log)), "count")
	r.metric("monitor.observe_ns", float64(monTime)/float64(len(log)), "ns")

	frames, codecTime, err := replayCodec(r, log)
	if err != nil {
		r.fail(0, err)
		return
	}
	a.add("codec", "replay", 2*int64(len(frames)), codecTime)

	steps, chanTime, err := replayChannel(log, frames, b.cfg.Faults.Reorder)
	if err != nil {
		r.fail(0, err)
		return
	}
	a.add("channel", "replay", steps, chanTime)
	r.metric("channel.step_ns", float64(chanTime)/float64(steps), "ns")

	var received int
	sends := map[ioa.Message]int{}
	var retransmits int
	for _, act := range log {
		switch {
		case act.Kind == ioa.KindReceivePkt:
			received++
		case act.Kind == ioa.KindSendPkt && act.Pkt.Payload != "":
			sends[act.Pkt.Payload]++
		case act.Kind == ioa.KindReceiveMsg:
			retransmits += sends[act.Msg] - 1
			delete(sends, act.Msg)
		}
	}
	rejects := traced.res.DecodeErrors
	r.metric("transport.frames_per_msg", float64(traced.res.FramesSent)/msgs, "ratio")
	r.metric("transport.retransmits_per_msg", float64(retransmits)/msgs, "ratio")
	r.metric("transport.decode_reject_share", float64(rejects)/float64(rejects+received), "ratio")

	r.metric("runtime.gc_cpu_fraction", rt.gcCPUFraction, "ratio")
	r.metric("runtime.alloc_bytes_per_op", rt.allocBytes/msgs, "B")
	r.metric("runtime.heap_peak_mb", rt.heapPeakMB, "MB")
	a.gc = time.Duration(rt.gcCPUSeconds * 1e9)
	a.overhead = traced.elapsed.Seconds()/base.elapsed.Seconds() - 1
	r.metric("unattributed_share", a.unattributed(), "ratio")
	r.metric("trace_overhead_share", a.overhead, "ratio")
	r.table = a
}

// replayCodec encodes every send_pkt of log as the loopback backend does,
// then decodes every frame, timing each pass, and checks the round trip.
func replayCodec(r *report, log ioa.Schedule) ([][]byte, time.Duration, error) {
	var sent []ioa.Action
	for _, act := range log {
		if act.Kind == ioa.KindSendPkt {
			sent = append(sent, act)
		}
	}
	frames := make([][]byte, len(sent))
	t0 := time.Now()
	for i, act := range sent {
		b, err := transport.EncodeFrame(transport.Frame{Type: transport.FrameData, Action: act})
		if err != nil {
			return nil, 0, fmt.Errorf("encode %s: %w", act, err)
		}
		frames[i] = b
	}
	encode := time.Since(t0)
	decoded := make([]transport.Frame, len(frames))
	t0 = time.Now()
	for i, b := range frames {
		f, _, err := transport.DecodeFrame(b)
		if err != nil {
			return nil, 0, fmt.Errorf("decode frame %d: %w", i, err)
		}
		decoded[i] = f
	}
	decode := time.Since(t0)
	var size int
	for i, f := range decoded {
		if f.Type != transport.FrameData || f.Action != sent[i] {
			return nil, 0, fmt.Errorf("frame %d decodes to %s, encoded %s", i, f.Action, sent[i])
		}
		size += len(frames[i])
	}
	n := float64(len(frames))
	r.metric("codec.encode_ns", float64(encode)/n, "ns")
	r.metric("codec.decode_ns", float64(decode)/n, "ns")
	r.metric("codec.frame_bytes", float64(size)/n, "B")
	return frames, encode + decode, nil
}

// replayChannel pushes the session's frames through fresh middlebox
// channels as the loopback link does: each send_pkt is a channel send,
// each receive_pkt a delivery picked from Enabled, with the link's
// compaction every 64 deliveries. Frames the session never accepted
// (lost, or rejected by the decoder) are marked lost at send. It returns
// the number of channel steps and the time spent.
func replayChannel(log ioa.Schedule, frames [][]byte, reorder bool) (int64, time.Duration, error) {
	type link struct {
		ch     *channel.Channel
		st     ioa.State
		seq    uint64
		flying map[uint64]ioa.Packet // session packet ID → channel packet
		pops   int
	}
	newLink := func(d ioa.Dir) *link {
		ch := channel.NewPermissiveFIFO(d)
		if reorder {
			ch = channel.NewPermissive(d)
		}
		return &link{ch: ch, st: ch.Start(), flying: map[uint64]ioa.Packet{}}
	}
	links := map[ioa.Dir]*link{ioa.TR: newLink(ioa.TR), ioa.RT: newLink(ioa.RT)}
	type key struct {
		d  ioa.Dir
		id uint64
	}
	accepted := map[key]bool{}
	for _, act := range log {
		if act.Kind == ioa.KindReceivePkt {
			accepted[key{act.Dir, act.Pkt.ID}] = true
		}
	}
	var steps int64
	fi := 0
	t0 := time.Now()
	for _, act := range log {
		switch act.Kind {
		case ioa.KindSendPkt:
			l := links[act.Dir]
			l.seq++
			p := ioa.Packet{ID: l.seq, Payload: ioa.Message(frames[fi])}
			fi++
			st, err := l.ch.Step(l.st, ioa.SendPkt(act.Dir, p))
			if err != nil {
				return 0, 0, err
			}
			steps++
			if accepted[key{act.Dir, act.Pkt.ID}] {
				l.flying[act.Pkt.ID] = p
			} else if st, err = l.ch.MarkLost(st, p); err != nil {
				return 0, 0, err
			}
			l.st = st
		case ioa.KindReceivePkt:
			l := links[act.Dir]
			p, ok := l.flying[act.Pkt.ID]
			if !ok {
				return 0, 0, fmt.Errorf("replay: %s was never sent", act)
			}
			delete(l.flying, act.Pkt.ID)
			var deliver ioa.Action
			for _, e := range l.ch.Enabled(l.st) {
				if e.Pkt == p {
					deliver = e
					break
				}
			}
			st, err := l.ch.Step(l.st, deliver)
			if err != nil {
				return 0, 0, fmt.Errorf("replay: deliver %s: %w", act, err)
			}
			steps++
			if l.pops++; l.pops%64 == 0 {
				if st, err = l.ch.Compact(st); err != nil {
					return 0, 0, err
				}
			}
			l.st = st
		}
	}
	return steps, time.Since(t0), nil
}
