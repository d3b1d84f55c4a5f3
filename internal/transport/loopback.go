package transport

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/spec"
)

// FaultPlan selects the faults the middlebox applies to frames in
// flight on the loopback link. Each enabled fault is applied
// independently with probability Rate per frame, driven by the seeded
// generator — the whole run is a pure function of the seed.
type FaultPlan struct {
	// Loss drops frames on send.
	Loss bool
	// Dup queues a second copy of a frame right behind it; a duplicated
	// frame decodes to the same packet, so the packet stream leaves
	// scheds(PL) and PL verdicts are not judged, mirroring the swarm
	// harness policy.
	Dup bool
	// Reorder delivers frames from a non-FIFO link in random order,
	// and with probability Rate holds all pending frames for a round —
	// the delay that lets retransmitted traffic overtake old copies,
	// which is what actually surfaces sequence-number wrap anomalies.
	Reorder bool
	// Corrupt flips one byte of the encoded frame in place; the strict
	// decoder's CRC turns this into an effective loss, which is the
	// designed failure mode.
	Corrupt bool
	// Rate is the per-frame probability of each enabled fault;
	// RunLoopback defaults it to 0.2 when faults are enabled.
	Rate float64
}

// Any reports whether any fault is enabled.
func (f FaultPlan) Any() bool { return f.Loss || f.Dup || f.Reorder || f.Corrupt }

// String renders the plan like "loss,dup" or "none".
func (f FaultPlan) String() string {
	var names []string
	if f.Loss {
		names = append(names, "loss")
	}
	if f.Dup {
		names = append(names, "dup")
	}
	if f.Reorder {
		names = append(names, "reorder")
	}
	if f.Corrupt {
		names = append(names, "corrupt")
	}
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ",")
}

// ParseFaultPlan parses a comma-separated fault list ("loss,dup"),
// "none" or "all". The Rate field is left zero for the caller.
func ParseFaultPlan(s string) (FaultPlan, error) {
	var f FaultPlan
	switch s {
	case "", "none":
		return f, nil
	case "all":
		return FaultPlan{Loss: true, Dup: true, Reorder: true, Corrupt: true}, nil
	}
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case "loss":
			f.Loss = true
		case "dup":
			f.Dup = true
		case "reorder":
			f.Reorder = true
		case "corrupt":
			f.Corrupt = true
		default:
			return FaultPlan{}, fmt.Errorf("transport: unknown fault %q (want loss, dup, reorder, corrupt, all or none)", name)
		}
	}
	return f, nil
}

// middlebox is the lossy link between the two endpoints: the encoded
// frames in transit, in send order, with the swarm-style faults applied
// per frame. It is the paper's C̄/Ĉ channel (§6) reduced to what a
// session can observe: a FIFO link always delivers the oldest frame, so
// Ĉ's skip-loss never fires and delivered or lost frames need no
// record. TestMiddleboxRefinesChannel mirrors every push and pop into
// channel.Channel and checks the queue equals its in-transit packets.
type middlebox struct {
	queue  [][]byte
	faults FaultPlan
	rng    *rand.Rand
	ins    *instruments
}

// push sends one encoded frame into the link and applies the fault
// plan to it. The middlebox owns frame from here on: corruption flips
// a byte in place, and a duplicate shares the corrupted bytes.
func (mb *middlebox) push(frame []byte) {
	mb.ins.inTransit.SetMax(int64(len(mb.queue) + 1))
	if mb.faults.Loss && mb.rng.Float64() < mb.faults.Rate {
		mb.ins.faultsInjected.Inc()
		return
	}
	if mb.faults.Corrupt && mb.rng.Float64() < mb.faults.Rate {
		flip := mb.rng.Intn(len(frame))
		frame[flip] ^= byte(1 + mb.rng.Intn(255))
		mb.ins.faultsInjected.Inc()
	}
	mb.queue = append(mb.queue, frame)
	if mb.faults.Dup && mb.rng.Float64() < mb.faults.Rate {
		mb.queue = append(mb.queue, frame)
		mb.ins.faultsInjected.Inc()
	}
}

// pop delivers the next frame, if any: the oldest on a FIFO link, a
// random pending one on a reordering link.
func (mb *middlebox) pop() ([]byte, bool) {
	if len(mb.queue) == 0 {
		return nil, false
	}
	i := 0
	if mb.faults.Reorder {
		if mb.rng.Float64() < mb.faults.Rate {
			return nil, false // hold everything for a round
		}
		i = mb.rng.Intn(len(mb.queue))
	}
	frame := mb.queue[i]
	mb.queue = slices.Delete(mb.queue, i, i+1)
	return frame, true
}

// LoopbackConfig configures a deterministic in-process transport run.
type LoopbackConfig struct {
	// Protocol is the protocol pair to run.
	Protocol core.Protocol
	// FIFO is the link discipline the session advertises; with it set
	// (and no reorder faults) the PL monitors check (PL5) too.
	FIFO bool
	// Msgs is the number of messages to push through.
	Msgs int
	// Window caps the application-level in-flight messages (injected
	// but not yet delivered); default 4.
	Window int
	// Faults is the middlebox fault plan; zero means a clean link.
	Faults FaultPlan
	// Seed drives the fault and reorder choices; the run is a pure
	// function of the configuration including this seed.
	Seed int64
	// MaxSteps bounds the scheduler loop; default 1000 + 300·Msgs.
	MaxSteps int
	// Registry receives the transport metrics; nil disables them.
	Registry *obs.Registry
	// KeepLog retains the full global schedule in the result (tests);
	// monitors do not need it, so large workloads leave it off.
	KeepLog bool
}

// LoopbackResult reports a completed (or aborted) loopback run.
type LoopbackResult struct {
	// Verdicts is the online monitors' sealed judgement.
	Verdicts VerdictSet
	// Violations lists every violation the monitors signalled online, in
	// signal order (the sealed Verdicts may add hypothesis-sensitive
	// properties like DL7/DL8 on top).
	Violations []spec.Violation
	// Delivered is the receive_msg payload sequence, in delivery order.
	Delivered []ioa.Message
	// Injected counts send_msg inputs applied.
	Injected int
	// Log is the captured global schedule (KeepLog only).
	Log ioa.Schedule
	// Steps is the number of scheduler iterations used.
	Steps int
	// FramesSent and DecodeErrors count link traffic and strict-decoder
	// rejections (corrupted frames surface here, as effective losses).
	FramesSent   int
	DecodeErrors int
}

// RunLoopback drives cfg.Msgs messages from a transmitter endpoint to
// a receiver endpoint over the in-process middlebox link, with the
// online monitors attached to the global action stream. It is fully
// deterministic for a fixed config. The returned error reports harness
// failures (deadlock, step budget, automaton errors) — specification
// violations are a result, not an error, and live in Verdicts.
func RunLoopback(cfg LoopbackConfig) (*LoopbackResult, error) {
	if cfg.Msgs <= 0 {
		return nil, fmt.Errorf("transport: loopback needs Msgs > 0")
	}
	window := cfg.Window
	if window <= 0 {
		window = 4
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1000 + 300*cfg.Msgs
	}
	faults := cfg.Faults
	if faults.Any() && faults.Rate <= 0 {
		faults.Rate = 0.2
	}

	ins := newInstruments(cfg.Registry)
	res := &LoopbackResult{}
	mons := NewMonitors(cfg.FIFO && !faults.Reorder, !faults.Dup, func(v spec.Violation) {
		ins.violations.Inc()
		res.Violations = append(res.Violations, v)
	})

	spans := newSpanTracker(cfg.Registry != nil, &ins)
	emit := func(a ioa.Action) {
		if cfg.KeepLog {
			res.Log = append(res.Log, a)
		}
		spans.observe(a)
		mons.Observe(a)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	mbTR := &middlebox{faults: faults, rng: rng, ins: &ins}
	mbRT := &middlebox{faults: faults, rng: rng, ins: &ins}

	sendVia := func(mb *middlebox, d ioa.Dir) func(ioa.Packet) error {
		return func(p ioa.Packet) error {
			b, err := EncodeFrame(Frame{Type: FrameData, Action: ioa.SendPkt(d, p)})
			if err != nil {
				return err
			}
			ins.frameSent(len(b))
			res.FramesSent++
			mb.push(b)
			return nil
		}
	}

	et, err := NewEndpoint(cfg.Protocol, ioa.T, emit, sendVia(mbTR, ioa.TR), nil)
	if err != nil {
		return nil, err
	}
	er, err := NewEndpoint(cfg.Protocol, ioa.R, emit, sendVia(mbRT, ioa.RT), func(m ioa.Message) {
		res.Delivered = append(res.Delivered, m)
		ins.msgsDelivered.Inc()
	})
	if err != nil {
		return nil, err
	}

	if err := et.Input(ioa.Wake(ioa.TR)); err != nil {
		return nil, err
	}
	if err := er.Input(ioa.Wake(ioa.RT)); err != nil {
		return nil, err
	}
	if _, err := et.Pump(); err != nil {
		return nil, err
	}
	if _, err := er.Pump(); err != nil {
		return nil, err
	}

	// receiveOn decodes one popped frame at its destination endpoint; a
	// rejected frame is counted and dropped (an effective loss the
	// protocol's retransmission logic recovers from).
	receiveOn := func(dst *Endpoint, b []byte) error {
		ins.frameReceived(len(b))
		f, _, err := DecodeFrame(b)
		if err != nil || f.Type != FrameData {
			ins.decodeErrors.Inc()
			res.DecodeErrors++
			return nil
		}
		if err := dst.HandlePacket(f.Action.Pkt); err != nil {
			return err
		}
		_, err = dst.Pump()
		return err
	}

	minter := core.NewMessageMinter("m")
	for len(res.Delivered) < cfg.Msgs {
		if res.Steps++; res.Steps > maxSteps {
			res.Verdicts = mons.Seal()
			return res, fmt.Errorf("transport: loopback step budget (%d) exhausted with %d/%d delivered",
				maxSteps, len(res.Delivered), cfg.Msgs)
		}
		progress := false
		if res.Injected < cfg.Msgs && res.Injected-len(res.Delivered) < window {
			if err := et.Input(ioa.SendMsg(ioa.TR, minter.Fresh())); err != nil {
				return res, err
			}
			ins.msgsSent.Inc()
			res.Injected++
			if _, err := et.Pump(); err != nil {
				return res, err
			}
			progress = true
		}
		if b, ok := mbTR.pop(); ok {
			progress = true
			if err := receiveOn(er, b); err != nil {
				return res, err
			}
		}
		if b, ok := mbRT.pop(); ok {
			progress = true
			if err := receiveOn(et, b); err != nil {
				return res, err
			}
		}
		if progress {
			continue
		}
		// The link is quiet and the workload is incomplete: trigger
		// retransmission. If re-arming fires nothing and nothing is in
		// flight, no future step can change anything.
		et.Rearm()
		er.Rearm()
		tf, err := et.Pump()
		if err != nil {
			return res, err
		}
		rf, err := er.Pump()
		if err != nil {
			return res, err
		}
		if tf+rf == 0 && len(mbTR.queue) == 0 && len(mbRT.queue) == 0 {
			res.Verdicts = mons.Seal()
			return res, fmt.Errorf("transport: loopback deadlocked with %d/%d delivered",
				len(res.Delivered), cfg.Msgs)
		}
	}
	res.Verdicts = mons.Seal()
	return res, nil
}
