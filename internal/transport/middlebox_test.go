package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
)

// mirror is the reference link: the paper's channel automaton (C̄ for
// a reordering link, Ĉ otherwise) carrying frames as packet payloads,
// with the fault plan applied through the channel surgeries (MarkLost,
// Corrupt, Duplicate). It draws from its own generator, seeded like the
// middlebox's, in the order the middlebox documents, so both make the
// same fault, hold and reorder choices.
type mirror struct {
	t      *testing.T
	ch     *channel.Channel
	st     ioa.State
	ids    uint64
	faults FaultPlan
	rng    *rand.Rand
}

func newMirror(t *testing.T, faults FaultPlan, seed int64) *mirror {
	ch := channel.NewPermissiveFIFO(ioa.TR)
	if faults.Reorder {
		ch = channel.NewPermissive(ioa.TR)
	}
	return &mirror{t: t, ch: ch, st: ch.Start(), faults: faults, rng: rand.New(rand.NewSource(seed))}
}

func (m *mirror) inTransit() []ioa.Packet {
	return m.st.(channel.State).InTransit()
}

// step applies a channel transition or surgery result.
func (m *mirror) step(st ioa.State, err error) {
	m.t.Helper()
	if err != nil {
		m.t.Fatal(err)
	}
	m.st = st
}

// push sends frame as a fresh packet and applies the fault plan to it.
func (m *mirror) push(frame []byte) {
	m.t.Helper()
	m.ids++
	p := ioa.Packet{ID: m.ids, Payload: ioa.Message(frame)}
	m.step(m.ch.Step(m.st, ioa.SendPkt(m.ch.Dir(), p)))
	if !m.faults.Any() {
		return
	}
	if m.faults.Loss && m.rng.Float64() < m.faults.Rate {
		m.step(m.ch.MarkLost(m.st, p))
		return
	}
	idx := len(m.inTransit()) - 1
	if m.faults.Corrupt && m.rng.Float64() < m.faults.Rate {
		flip := m.rng.Intn(len(frame))
		mask := byte(1 + m.rng.Intn(255))
		st, _, err := m.ch.Corrupt(m.st, idx, func(p ioa.Packet) ioa.Packet {
			b := []byte(p.Payload)
			b[flip] ^= mask
			p.Payload = ioa.Message(b)
			return p
		})
		m.step(st, err)
	}
	if m.faults.Dup && m.rng.Float64() < m.faults.Rate {
		m.ids++
		st, _, err := m.ch.Duplicate(m.st, idx, m.ids)
		m.step(st, err)
	}
}

// pop delivers the packet an enabled receive_pkt chooses: the first on
// a FIFO link, a random one on a reordering link unless it holds.
func (m *mirror) pop() ([]byte, bool) {
	m.t.Helper()
	enabled := m.ch.Enabled(m.st)
	if len(enabled) == 0 {
		return nil, false
	}
	a := enabled[0]
	if m.faults.Reorder {
		if m.rng.Float64() < m.faults.Rate {
			return nil, false
		}
		a = enabled[m.rng.Intn(len(enabled))]
	}
	m.step(m.ch.Step(m.st, a))
	return []byte(a.Pkt.Payload), true
}

// TestMiddleboxRefinesChannel drives random push/pop sequences through
// the middlebox under every fault plan and mirrors each operation into
// channel.Channel. After every operation the queue must hold exactly
// the channel's in-transit payloads, in send order, and every popped
// frame must be the payload the channel's enabled receive_pkt delivers:
// the queue refines C̄ (reordering links) or Ĉ (FIFO links) extended
// with the duplicate and corrupt surgeries.
func TestMiddleboxRefinesChannel(t *testing.T) {
	for mask := 0; mask < 16; mask++ {
		faults := FaultPlan{Loss: mask&1 != 0, Dup: mask&2 != 0, Reorder: mask&4 != 0, Corrupt: mask&8 != 0, Rate: 0.3}
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", faults, seed), func(t *testing.T) {
				ins := newInstruments(nil)
				mb := &middlebox{faults: faults, rng: rand.New(rand.NewSource(seed)), ins: &ins}
				m := newMirror(t, faults, seed)
				ops := rand.New(rand.NewSource(-seed))
				for step := 0; step < 400; step++ {
					if ops.Intn(2) == 0 {
						frame := []byte(fmt.Sprintf("frame-%d", step))
						m.push(append([]byte(nil), frame...))
						mb.push(frame)
					} else {
						want, wantOK := m.pop()
						got, ok := mb.pop()
						if ok != wantOK || !bytes.Equal(got, want) {
							t.Fatalf("step %d: pop = %q, %t; channel delivers %q, %t", step, got, ok, want, wantOK)
						}
					}
					want := m.inTransit()
					if len(want) != len(mb.queue) {
						t.Fatalf("step %d: queue holds %d frames, channel has %d in transit", step, len(mb.queue), len(want))
					}
					for i, p := range want {
						if string(mb.queue[i]) != string(p.Payload) {
							t.Fatalf("step %d: queue[%d] = %q, channel in-transit[%d] = %q", step, i, mb.queue[i], i, p.Payload)
						}
					}
				}
			})
		}
	}
}

// BenchmarkMiddlebox measures one frame's trip through the loopback
// link: a push, then enough pops to bring the link back to eight frames
// in transit (the serving benchmarks' window). One op is one pushed
// frame; a reordering link's hold rounds count as pop attempts. Every
// push reuses one encoded frame, whose contents do not affect the cost.
func BenchmarkMiddlebox(b *testing.B) {
	frame, err := EncodeFrame(Frame{Type: FrameData, Action: ioa.SendPkt(ioa.TR, ioa.Packet{ID: 1, Header: "data/3", Payload: "m-12345"})})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		faults FaultPlan
	}{
		{"fifo-clean", FaultPlan{}},
		{"loss,reorder,corrupt", FaultPlan{Loss: true, Reorder: true, Corrupt: true, Rate: 0.2}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ins := newInstruments(nil)
			mb := &middlebox{faults: bc.faults, rng: rand.New(rand.NewSource(1)), ins: &ins}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mb.push(frame)
				for len(mb.queue) > 8 {
					mb.pop()
				}
			}
		})
	}
}
