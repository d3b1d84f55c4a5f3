package transport

import (
	"time"

	"repro/internal/ioa"
)

// spanTracker measures per-message end-to-end delivery latency and
// retransmission cost from a session's causally-linearized event
// stream. It is fed every observed action (the same stream the online
// monitors judge):
//
//   - send_msg(m) opens m's span — the injection stamp at the
//     transmitter (on the server side, the stamp is taken when the
//     mirrored send_msg event arrives, which the emit-before-send
//     ordering guarantees precedes the data frame it caused);
//   - send_pkt carrying payload m counts one transmission of m, so the
//     per-message send count at delivery time is 1 + retransmits;
//   - receive_msg(m) closes the span, recording the elapsed time into
//     transport.delivery_latency (µs) and the extra transmissions into
//     transport.retransmits_per_msg.
//
// Duplicate deliveries (a duplicating link) find their span already
// closed and record nothing; protocols whose packets do not carry the
// message verbatim (frag splits messages into fragments) simply never
// match a send count, so their retransmit histogram stays empty while
// latency still records. The tracker is not goroutine-safe; sessions
// call it under the same serialisation as their monitors. The nil
// tracker is a valid no-op, which is the whole disabled mode — spans
// cost nothing unless a registry is attached.
type spanTracker struct {
	ins   *instruments
	now   func() time.Duration
	start map[ioa.Message]time.Duration
	sends map[ioa.Message]int
}

// newSpanTracker returns a tracker recording into ins, or nil (the
// no-op tracker) when enabled is false.
func newSpanTracker(enabled bool, ins *instruments) *spanTracker {
	if !enabled {
		return nil
	}
	began := time.Now()
	return &spanTracker{
		ins:   ins,
		now:   func() time.Duration { return time.Since(began) },
		start: make(map[ioa.Message]time.Duration),
		sends: make(map[ioa.Message]int),
	}
}

// observe feeds one event of the session's global schedule.
func (st *spanTracker) observe(a ioa.Action) {
	if st == nil {
		return
	}
	switch a.Kind {
	case ioa.KindSendMsg:
		if _, open := st.start[a.Msg]; !open {
			st.start[a.Msg] = st.now()
		}
	case ioa.KindSendPkt:
		if a.Pkt.Payload != "" {
			st.sends[a.Pkt.Payload]++
		}
	case ioa.KindReceiveMsg:
		if t0, open := st.start[a.Msg]; open {
			st.ins.deliveryLatency.Observe(max64(0, (st.now() - t0).Microseconds()))
			delete(st.start, a.Msg)
		}
		if n, counted := st.sends[a.Msg]; counted {
			st.ins.retransmitsPerMsg.Observe(int64(n - 1))
			delete(st.sends, a.Msg)
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
