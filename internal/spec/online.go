package spec

import (
	"fmt"

	"repro/internal/ioa"
)

// This file provides online (incremental) versions of the offline
// checkers CheckDL, CheckPL and CheckPLFIFO. An online monitor observes
// the events of a schedule one at a time, in order, and can produce at
// any moment the exact verdict the offline checker would produce on the
// prefix observed so far — identical down to the violation Index and
// Detail strings. The transport backend attaches these monitors to live
// action streams; the equality "online verdict == offline verdict on
// the captured schedule" is the monitors' soundness statement, and is
// enforced by randomized tests in online_test.go.
//
// Most of the paper's properties are prefix-closed and can be decided
// event by event with O(1) amortised work ((DL3)-(DL6), (PL2)-(PL5),
// well-formedness). Two subtleties force the monitors to retain a
// little more state:
//
//   - Working-interval membership ((DL2), (PL1)) cannot be decided at
//     the send event: workingIntervals discards an open interval when a
//     second wake arrives without an intervening fail/crash (the
//     ill-formed wake-wake pattern), retroactively orphaning the sends
//     inside it. Sends in the currently open interval are therefore
//     held as *candidate* violations until the interval either closes
//     properly (they are safe forever) or is discarded by a re-wake
//     (the earliest becomes the violation, so it is the only candidate
//     OnlinePL keeps; its Detail is formatted only then).
//
//   - (DL7) and (DL8) quantify over whole working intervals and the
//     trace-final receive set, so the monitor retains the per-interval
//     send lists and computes those two properties at Verdict time.
//
// Memory is O(messages + status events), never O(events²), which is
// what makes the monitors usable on long-running live connections.

// onlineWF tracks wellFormedDir for one direction.
type onlineWF struct {
	awake bool
	viol  *Violation
}

func (w *onlineWF) observe(a ioa.Action, d ioa.Dir, idx int) {
	if w.viol != nil || a.Dir != d {
		return
	}
	switch a.Kind {
	case ioa.KindCrash:
		w.awake = false
	case ioa.KindWake:
		if w.awake {
			w.viol = &Violation{Property: PropWellFormed, Index: idx,
				Detail: fmt.Sprintf("wake^{%s} without intervening fail^{%s}", d, d)}
			return
		}
		w.awake = true
	case ioa.KindFail:
		if !w.awake {
			w.viol = &Violation{Property: PropWellFormed, Index: idx,
				Detail: fmt.Sprintf("fail^{%s} without preceding wake^{%s}", d, d)}
			return
		}
		w.awake = false
	}
}

// intervalSend is one send_msg event retained for interval-scoped
// checks: the message and its 1-based event index. The candidate DL2
// violation it stands for is formatted only if the enclosing interval
// turns out to be discarded: most sends are never reported, so an eager
// Detail would cost one fmt.Sprintf per send for nothing. The action is
// rebuilt from the message and the monitored direction, which is all
// send_msg's String prints, because a retained ioa.Action would cost
// 112 bytes per send.
type intervalSend struct {
	msg ioa.Message
	idx int
}

// dl2Violation is the DL2 failure for send_msg^{dir}(msg) at event idx.
func (m *OnlineDL) dl2Violation(msg ioa.Message, idx int) *Violation {
	return &Violation{Property: PropDL2, Index: idx,
		Detail: fmt.Sprintf("%s outside any transmitter working interval", ioa.SendMsg(m.dir, msg))}
}

// OnlineDL incrementally decides CheckDL^{d}. Feed it, in order, the
// events of the data-link behavior that the offline checker would see
// (kinds send_msg, receive_msg, wake, fail and crash, both directions;
// other kinds are ignored but still advance the event index, so feeding
// exactly the offline schedule preserves index fidelity). The zero
// value is not ready; construct with NewOnlineDL.
type OnlineDL struct {
	dir ioa.Dir
	n   int // events observed (the current 1-based index after Observe)

	// Hypotheses.
	wf   [2]onlineWF // 0: dir, 1: dir.Rev(), matching WellFormedDL order
	open [2]bool     // an interval is currently open (workingIntervals semantics)
	dl2  *Violation
	dl3  *Violation
	// Guarantees decidable online.
	dl4 *Violation
	dl5 *Violation
	dl6 *Violation

	sentAt map[ioa.Message]int // first send_msg^{d} index per message
	recvAt map[ioa.Message]int // first receive_msg^{d} index per message

	// DL6 state, mirroring the offline scan exactly.
	sendIndex     map[ioa.Message]int
	nextSend      int
	lastDelivered int

	// Interval-scoped state for DL2 candidates, DL7 and DL8.
	closedSends [][]intervalSend // send lists of properly closed intervals
	openSends   []intervalSend   // sends in the currently open interval
}

// NewOnlineDL returns an online monitor for CheckDL^{d}.
func NewOnlineDL(d ioa.Dir) *OnlineDL {
	return &OnlineDL{
		dir:           d,
		sentAt:        make(map[ioa.Message]int),
		recvAt:        make(map[ioa.Message]int),
		sendIndex:     make(map[ioa.Message]int),
		lastDelivered: -1,
	}
}

// Dir returns the monitored message direction.
func (m *OnlineDL) Dir() ioa.Dir { return m.dir }

// Events returns the number of events observed so far.
func (m *OnlineDL) Events() int { return m.n }

// Observe feeds the next event. It returns a non-nil Violation exactly
// when one of the online-decidable guarantee properties ((DL4), (DL5),
// (DL6)) is violated for the first time at this event — the signal a
// live monitor acts on immediately. Hypothesis failures and the
// Verdict-time properties (DL7), (DL8) are reported by Verdict.
func (m *OnlineDL) Observe(a ioa.Action) *Violation {
	m.n++
	idx := m.n

	m.wf[0].observe(a, m.dir, idx)
	m.wf[1].observe(a, m.dir.Rev(), idx)
	m.observeIntervals(a, idx)

	if a.Dir != m.dir {
		return nil
	}
	switch a.Kind {
	case ioa.KindSendMsg:
		return m.observeSend(a, idx)
	case ioa.KindReceiveMsg:
		return m.observeReceive(a, idx)
	}
	return nil
}

// observeIntervals maintains the workingIntervals state for both
// directions: wake opens an interval (discarding an already-open one),
// fail/crash closes it.
func (m *OnlineDL) observeIntervals(a ioa.Action, idx int) {
	for k, d := range [2]ioa.Dir{m.dir, m.dir.Rev()} {
		if a.Dir != d {
			continue
		}
		switch a.Kind {
		case ioa.KindWake:
			if k == 0 && m.open[0] {
				// Re-wake: the open interval is discarded, so its sends
				// were never in any working interval. The earliest such
				// send is the DL2 violation (any earlier failing send
				// was already recorded with a smaller index).
				if m.dl2 == nil && len(m.openSends) > 0 {
					m.dl2 = m.dl2Violation(m.openSends[0].msg, m.openSends[0].idx)
				}
				m.openSends = m.openSends[:0]
			}
			m.open[k] = true
		case ioa.KindFail, ioa.KindCrash:
			if k == 0 && m.open[0] {
				m.closedSends = append(m.closedSends, m.openSends)
				m.openSends = nil
			}
			m.open[k] = false
		}
	}
}

func (m *OnlineDL) observeSend(a ioa.Action, idx int) *Violation {
	if m.open[0] {
		m.openSends = append(m.openSends, intervalSend{msg: a.Msg, idx: idx})
	} else if m.dl2 == nil {
		m.dl2 = m.dl2Violation(a.Msg, idx)
	}
	if m.dl3 == nil {
		if j, dup := m.sentAt[a.Msg]; dup {
			m.dl3 = &Violation{Property: PropDL3, Index: idx,
				Detail: fmt.Sprintf("message %q already sent at event %d", string(a.Msg), j)}
		}
	}
	if _, ok := m.sentAt[a.Msg]; !ok {
		m.sentAt[a.Msg] = idx
	}
	if m.dl6 == nil {
		if _, dup := m.sendIndex[a.Msg]; !dup {
			m.sendIndex[a.Msg] = m.nextSend
		}
		m.nextSend++
	}
	return nil
}

func (m *OnlineDL) observeReceive(a ioa.Action, idx int) *Violation {
	var fresh *Violation
	if m.dl4 == nil {
		if j, dup := m.recvAt[a.Msg]; dup {
			m.dl4 = &Violation{Property: PropDL4, Index: idx,
				Detail: fmt.Sprintf("message %q already received at event %d", string(a.Msg), j)}
			fresh = m.dl4
		}
	}
	if m.dl5 == nil {
		if _, sent := m.sentAt[a.Msg]; !sent {
			m.dl5 = &Violation{Property: PropDL5, Index: idx,
				Detail: fmt.Sprintf("message %q received but never sent", string(a.Msg))}
			if fresh == nil {
				fresh = m.dl5
			}
		}
	}
	if m.dl6 == nil {
		if si, ok := m.sendIndex[a.Msg]; ok {
			if si <= m.lastDelivered {
				m.dl6 = &Violation{Property: PropDL6, Index: idx,
					Detail: fmt.Sprintf("message %q (send #%d) delivered after a later-sent message (send #%d)", string(a.Msg), si+1, m.lastDelivered+1)}
				if fresh == nil {
					fresh = m.dl6
				}
			} else {
				m.lastDelivered = si
			}
		}
	}
	if _, ok := m.recvAt[a.Msg]; !ok {
		m.recvAt[a.Msg] = idx
	}
	return fresh
}

// dl7 replays the offline DL7 scan over the retained interval send
// lists and the trace-final receive set.
func (m *OnlineDL) dl7() *Violation {
	intervals := m.closedSends
	if m.open[0] {
		intervals = append(intervals[:len(intervals):len(intervals)], m.openSends)
	}
	for _, sends := range intervals {
		for j := len(sends) - 1; j > 0; j-- {
			_, laterRecv := m.recvAt[sends[j].msg]
			_, earlierRecv := m.recvAt[sends[j-1].msg]
			if laterRecv && !earlierRecv {
				return &Violation{Property: PropDL7, Index: sends[j-1].idx,
					Detail: fmt.Sprintf("message %q lost but later message %q from the same working interval delivered", string(sends[j-1].msg), string(sends[j].msg))}
			}
		}
	}
	return nil
}

// dl8 interprets the observed prefix as a completed trace: every send
// in the unbounded (still open) transmitter interval must be received.
func (m *OnlineDL) dl8() *Violation {
	if !m.open[0] {
		return nil
	}
	for _, s := range m.openSends {
		if _, ok := m.recvAt[s.msg]; !ok {
			return &Violation{Property: PropDL8, Index: s.idx,
				Detail: fmt.Sprintf("message %q sent in the unbounded transmitter working interval but never received", string(s.msg))}
		}
	}
	return nil
}

// Verdict returns CheckDL's verdict on the observed prefix, interpreted
// as a completed trace (the same finite-trace liveness reading the
// offline checker uses; see the package comment).
func (m *OnlineDL) Verdict() Verdict {
	var hyp []Violation
	if m.wf[0].viol != nil {
		hyp = append(hyp, *m.wf[0].viol)
	} else if m.wf[1].viol != nil {
		hyp = append(hyp, *m.wf[1].viol)
	}
	if m.open[0] != m.open[1] {
		hyp = append(hyp, Violation{Property: PropDL1,
			Detail: fmt.Sprintf("unbounded transmitter interval=%v but unbounded receiver interval=%v", m.open[0], m.open[1])})
	}
	if m.dl2 != nil {
		hyp = append(hyp, *m.dl2)
	}
	if m.dl3 != nil {
		hyp = append(hyp, *m.dl3)
	}
	if len(hyp) > 0 {
		return Verdict{Vacuous: true, HypothesisFailures: hyp}
	}
	var out []Violation
	for _, v := range []*Violation{m.dl4, m.dl5, m.dl6, m.dl7(), m.dl8()} {
		if v != nil {
			out = append(out, *v)
		}
	}
	return Verdict{Violations: out}
}

// OnlinePL incrementally decides CheckPL^{d} (and CheckPLFIFO^{d} when
// fifo is set). Feed it, in order, the events of the physical-layer
// schedule for direction d that the offline checker would see (kinds
// send_pkt, receive_pkt, wake, fail and crash with direction d; other
// events are ignored but advance the index). The zero value is not
// ready; construct with NewOnlinePL.
type OnlinePL struct {
	dir  ioa.Dir
	fifo bool
	n    int

	wf   onlineWF
	open bool
	pl1  *Violation
	pl2  *Violation
	pl3  *Violation
	pl4  *Violation
	pl5  *Violation

	// pending is the earliest send inside the currently open interval
	// (idx 0: none): the PL1 violation if a re-wake discards the
	// interval (see OnlineDL). A later send of the same interval can
	// never be the earliest violation, so no other send is kept.
	pending pendingSend

	sentAt map[ioa.Packet]int
	recvAt map[ioa.Packet]int

	sendIndex     map[ioa.Packet]int
	nextSend      int
	lastDelivered int
}

// pendingSend is one send_pkt event: the packet and its 1-based event
// index. Its PL1 Detail is formatted only when it is reported.
type pendingSend struct {
	pkt ioa.Packet
	idx int
}

// pl1Violation is the PL1 failure for send_pkt^{dir}(s.pkt) at s.idx.
func (m *OnlinePL) pl1Violation(s pendingSend) *Violation {
	return &Violation{Property: PropPL1, Index: s.idx,
		Detail: fmt.Sprintf("%s outside any working interval", ioa.SendPkt(m.dir, s.pkt))}
}

// NewOnlinePL returns an online monitor for CheckPL^{d}; with fifo set
// its Verdict matches CheckPLFIFO^{d}.
func NewOnlinePL(d ioa.Dir, fifo bool) *OnlinePL {
	return &OnlinePL{
		dir:           d,
		fifo:          fifo,
		sentAt:        make(map[ioa.Packet]int),
		recvAt:        make(map[ioa.Packet]int),
		sendIndex:     make(map[ioa.Packet]int),
		lastDelivered: -1,
	}
}

// Dir returns the monitored packet direction.
func (m *OnlinePL) Dir() ioa.Dir { return m.dir }

// FIFO reports whether the monitor also checks (PL5).
func (m *OnlinePL) FIFO() bool { return m.fifo }

// Events returns the number of events observed so far.
func (m *OnlinePL) Events() int { return m.n }

// Observe feeds the next event, returning a Violation when one of the
// online-decidable guarantees ((PL3), (PL4), (PL5)) first fails.
func (m *OnlinePL) Observe(a ioa.Action) *Violation {
	m.n++
	idx := m.n
	m.wf.observe(a, m.dir, idx)
	if a.Dir != m.dir {
		return nil
	}
	switch a.Kind {
	case ioa.KindWake:
		if m.pl1 == nil && m.pending.idx > 0 {
			m.pl1 = m.pl1Violation(m.pending)
		}
		m.pending = pendingSend{}
		m.open = true
	case ioa.KindFail, ioa.KindCrash:
		m.pending = pendingSend{}
		m.open = false
	case ioa.KindSendPkt:
		switch {
		case !m.open:
			if m.pl1 == nil {
				m.pl1 = m.pl1Violation(pendingSend{pkt: a.Pkt, idx: idx})
			}
		case m.pending.idx == 0:
			m.pending = pendingSend{pkt: a.Pkt, idx: idx}
		}
		if m.pl2 == nil {
			if j, dup := m.sentAt[a.Pkt]; dup {
				m.pl2 = &Violation{Property: PropPL2, Index: idx,
					Detail: fmt.Sprintf("packet %s already sent at event %d", a.Pkt, j)}
			}
		}
		if _, ok := m.sentAt[a.Pkt]; !ok {
			m.sentAt[a.Pkt] = idx
		}
		if m.pl5 == nil {
			m.sendIndex[a.Pkt] = m.nextSend
			m.nextSend++
		}
	case ioa.KindReceivePkt:
		var fresh *Violation
		if m.pl3 == nil {
			if j, dup := m.recvAt[a.Pkt]; dup {
				m.pl3 = &Violation{Property: PropPL3, Index: idx,
					Detail: fmt.Sprintf("packet %s already received at event %d", a.Pkt, j)}
				fresh = m.pl3
			}
		}
		if m.pl4 == nil {
			if _, sent := m.sentAt[a.Pkt]; !sent {
				m.pl4 = &Violation{Property: PropPL4, Index: idx,
					Detail: fmt.Sprintf("packet %s received but never sent", a.Pkt)}
				if fresh == nil {
					fresh = m.pl4
				}
			}
		}
		if m.pl5 == nil {
			if si, ok := m.sendIndex[a.Pkt]; ok {
				if si <= m.lastDelivered {
					m.pl5 = &Violation{Property: PropPL5, Index: idx,
						Detail: fmt.Sprintf("packet %s (send #%d) delivered after a later-sent packet (send #%d)", a.Pkt, si+1, m.lastDelivered+1)}
					if fresh == nil && m.fifo {
						fresh = m.pl5
					}
				} else {
					m.lastDelivered = si
				}
			}
		}
		if _, ok := m.recvAt[a.Pkt]; !ok {
			m.recvAt[a.Pkt] = idx
		}
		return fresh
	}
	return nil
}

// Verdict returns CheckPL's verdict (CheckPLFIFO's when the monitor is
// FIFO) on the observed prefix.
func (m *OnlinePL) Verdict() Verdict {
	var hyp []Violation
	if m.wf.viol != nil {
		hyp = append(hyp, *m.wf.viol)
	}
	if m.pl1 != nil {
		hyp = append(hyp, *m.pl1)
	}
	if m.pl2 != nil {
		hyp = append(hyp, *m.pl2)
	}
	if len(hyp) > 0 {
		return Verdict{Vacuous: true, HypothesisFailures: hyp}
	}
	var out []Violation
	if m.pl3 != nil {
		out = append(out, *m.pl3)
	}
	if m.pl4 != nil {
		out = append(out, *m.pl4)
	}
	if m.fifo && m.pl5 != nil {
		out = append(out, *m.pl5)
	}
	return Verdict{Violations: out}
}
