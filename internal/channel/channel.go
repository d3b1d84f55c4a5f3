// Package channel implements the paper's physical channels (Section 6):
// the very permissive non-FIFO channel C̄, the permissive FIFO channel Ĉ,
// and the delivery-set machinery (del surgery, clean states, waiting
// sequences) used by the impossibility constructions.
//
// The paper's channels resolve their nondeterminism by fixing an arbitrary
// delivery set S at the start. The executable channels here make the
// equivalent *lazy* choice: at each step, any in-transit packet permitted
// by the ordering discipline may be delivered next, and packets may be
// lost via internal lose actions or by the surgery methods that mirror
// Lemmas 6.3 and 6.6. The set of finite schedules is identical to the
// union over all delivery sets S of the paper's channel schedules; the
// DeliverySet type in this package implements the explicit formulation and
// the tests cross-validate the two.
package channel

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ioa"
)

// Packet delivery status inside a channel.
const (
	statusPending   uint8 = iota // sent, not yet delivered or lost
	statusDelivered              // receive_pkt has occurred
	statusLost                   // dropped; will never be delivered
)

// entry tracks one sent packet and its fate.
type entry struct {
	pkt    ioa.Packet
	status uint8
}

// State is a channel state: the send history with per-packet fates, plus
// the FIFO high-water mark (index of the most recently delivered packet,
// -1 when nothing has been delivered). It corresponds to the paper's
// (counter1, counter2, packet, S) with S resolved lazily.
type State struct {
	entries []entry
	hwm     int
}

var (
	_ ioa.State               = State{}
	_ ioa.EquivState          = State{}
	_ ioa.AppendFingerprinter = State{}
)

// Fingerprint canonically encodes the state.
func (s State) Fingerprint() string { return string(s.AppendFingerprint(nil)) }

// AppendFingerprint appends the Fingerprint encoding to dst without
// intermediate string allocations.
func (s State) AppendFingerprint(dst []byte) []byte {
	dst = append(dst, "ch{"...)
	for i, e := range s.entries {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = e.pkt.AppendText(dst) // fp:ignore exact-dedup baseline keeps raw IDs; AppendCanonFingerprint below is the symmetry-aware twin
		dst = append(dst, ':')
		dst = strconv.AppendUint(dst, uint64(e.status), 10)
	}
	dst = append(dst, " hwm="...)
	dst = strconv.AppendInt(dst, int64(s.hwm), 10)
	return append(dst, '}')
}

var _ ioa.CanonFingerprinter = State{}

// AppendCanonFingerprint appends the fingerprint with packet IDs and
// payload tokens replaced by canonical first-use indices. Entries are
// visited in send order, which depends only on the state's structure, so
// equal canonical fingerprints imply a bijective relabelling between the
// two channel histories.
func (s State) AppendCanonFingerprint(dst []byte, c *ioa.Canon) []byte {
	dst = append(dst, "ch{"...)
	for i, e := range s.entries {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = c.AppendPktID(dst, e.pkt.ID)
		dst = append(dst, '[')
		dst = append(dst, e.pkt.Header...)
		dst = append(dst, '|')
		dst = c.AppendMsg(dst, e.pkt.Payload)
		dst = append(dst, "]:"...)
		dst = strconv.AppendUint(dst, uint64(e.status), 10)
	}
	dst = append(dst, " hwm="...)
	dst = strconv.AppendInt(dst, int64(s.hwm), 10)
	return append(dst, '}')
}

// EquivFingerprint encodes the state up to the message-independence
// equivalence ≡: packet IDs and payload contents are erased, leaving the
// header sequence and fates. Two channel states with equal equivalence
// fingerprints hold ≡-equivalent packet sequences.
func (s State) EquivFingerprint() string {
	var b strings.Builder
	b.WriteString("ch{")
	for i, e := range s.entries {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "[%s]:%d", e.pkt.Header, e.status)
	}
	fmt.Fprintf(&b, " hwm=%d}", s.hwm)
	return b.String()
}

// InTransit returns the pending packets in send order: the packets p such
// that send_pkt(p) has occurred and receive_pkt(p) has not, and that have
// not been lost.
func (s State) InTransit() []ioa.Packet {
	var out []ioa.Packet
	for _, e := range s.entries {
		if e.status == statusPending {
			out = append(out, e.pkt)
		}
	}
	return out
}

// PendingCount returns len(InTransit()) without materialising the slice;
// the explorer's MaxInTransit pruning calls this per candidate send_pkt.
func (s State) PendingCount() int {
	n := 0
	for _, e := range s.entries {
		if e.status == statusPending {
			n++
		}
	}
	return n
}

// Clean reports whether the channel is empty in the paper's sense (Lemma
// 6.3): no pending packet can ever be delivered. For the executable
// channel that simply means no packet is pending.
func (s State) Clean() bool {
	for _, e := range s.entries {
		if e.status == statusPending {
			return false
		}
	}
	return true
}

// SentCount returns counter1: the number of send_pkt events so far.
func (s State) SentCount() int { return len(s.entries) }

// DeliveredCount returns counter2: the number of receive_pkt events so far.
func (s State) DeliveredCount() int {
	n := 0
	for _, e := range s.entries {
		if e.status == statusDelivered {
			n++
		}
	}
	return n
}

// clone returns a deep copy; Step never mutates its argument.
func (s State) clone() State {
	return State{entries: append([]entry(nil), s.entries...), hwm: s.hwm}
}

// Fairness classes of a channel.
const (
	// ClassDeliver contains all receive_pkt output actions; fairness for
	// this class yields the liveness property (PL6).
	ClassDeliver ioa.Class = "deliver"
	// ClassLose contains the internal lose actions of a lossy channel.
	// Schedulers typically exempt this class from fairness (a channel is
	// never obliged to lose packets).
	ClassLose ioa.Class = "lose"
)

// Channel is a permissive physical channel automaton for one direction.
// With fifo=false it is the paper's C̄^{d}; with fifo=true, Ĉ^{d}.
type Channel struct {
	dir      ioa.Dir
	fifo     bool
	lossy    bool
	lifetime int // 0: packets may stay in transit forever
	name     string
	sig      ioa.Signature // fixed by build, after the options ran
}

var _ ioa.Automaton = (*Channel)(nil)

// Option configures a Channel.
type Option func(*Channel)

// WithLoss enables internal lose actions, making packet loss available to
// schedulers (for randomized lossy-link experiments) in addition to the
// explicit surgery methods.
func WithLoss() Option {
	return func(c *Channel) { c.lossy = true }
}

// WithMaxLifetime bounds how long a packet may remain in transit, measured
// in subsequent send_pkt events on the same channel: when the (i+L)-th
// packet is sent, the i-th is lost if still pending. This models the
// paper's footnote 1 — "a known bound on the time a message may remain on
// the link before being either lost or delivered" — with sends as the
// clock, and is what makes bounded-header protocols possible over
// reordering channels (experiment E12).
func WithMaxLifetime(l int) Option {
	return func(c *Channel) { c.lifetime = l }
}

// NewPermissive returns the non-FIFO permissive channel C̄^{d} (Section
// 6.1): any in-transit packet may be delivered next.
func NewPermissive(d ioa.Dir, opts ...Option) *Channel {
	return (&Channel{dir: d, name: fmt.Sprintf("C̄^{%s}", d)}).build(opts)
}

// NewPermissiveFIFO returns the FIFO permissive channel Ĉ^{d} (Section
// 6.2): packets are delivered in send order, with gaps (skipped packets
// are lost).
func NewPermissiveFIFO(d ioa.Dir, opts ...Option) *Channel {
	return (&Channel{dir: d, fifo: true, name: fmt.Sprintf("Ĉ^{%s}", d)}).build(opts)
}

// build applies the options, then fixes the signature of Section 3:
// inputs send_pkt^{d}, wake^{d}, fail^{d}, crash^{d}; outputs
// receive_pkt^{d}; plus the internal lose family when WithLoss ran.
func (c *Channel) build(opts []Option) *Channel {
	for _, o := range opts {
		o(c)
	}
	c.sig = ioa.Signature{
		In: []ioa.Pattern{
			{Kind: ioa.KindSendPkt, Dir: c.dir},
			{Kind: ioa.KindWake, Dir: c.dir},
			{Kind: ioa.KindFail, Dir: c.dir},
			{Kind: ioa.KindCrash, Dir: c.dir},
		},
		Out: []ioa.Pattern{
			{Kind: ioa.KindReceivePkt, Dir: c.dir},
		},
	}
	if c.lossy {
		c.sig.Int = []ioa.Pattern{{Kind: ioa.KindInternal, Name: c.loseName()}}
	}
	return c
}

// Name returns the channel's name, e.g. "Ĉ^{t,r}".
func (c *Channel) Name() string { return c.name }

// Dir returns the channel's direction.
func (c *Channel) Dir() ioa.Dir { return c.dir }

// FIFO reports whether the channel enforces FIFO delivery.
func (c *Channel) FIFO() bool { return c.fifo }

// loseName is the name of the channel's internal lose action family.
func (c *Channel) loseName() string { return "lose^{" + c.dir.String() + "}" }

// LoseActionName exposes the lose action family name so explorers can
// map a lose action (whose Dir field is unset) back to its channel.
func (c *Channel) LoseActionName() string { return c.loseName() }

// Signature returns the physical layer signature the constructor built.
func (c *Channel) Signature() ioa.Signature { return c.sig }

// Start returns the empty channel.
func (c *Channel) Start() ioa.State { return State{hwm: -1} }

// Lose returns the internal action that drops packet p in transit.
func (c *Channel) Lose(p ioa.Packet) ioa.Action {
	return ioa.Action{Kind: ioa.KindInternal, Name: c.loseName(), Pkt: p}
}

// deliverable reports whether entry index i may be delivered next.
func (c *Channel) deliverable(s State, i int) bool {
	if s.entries[i].status != statusPending {
		return false
	}
	if c.fifo && i <= s.hwm {
		return false
	}
	return true
}

// Step implements the transition relation. wake, fail and crash have no
// effect on the channel state (Section 6.1).
func (c *Channel) Step(st ioa.State, a ioa.Action) (ioa.State, error) {
	s, ok := st.(State)
	if !ok {
		return nil, fmt.Errorf("%w: want channel.State, got %T", ioa.ErrBadState, st)
	}
	if !c.sig.Contains(a) {
		return nil, fmt.Errorf("%w: %s not an action of %s", ioa.ErrNotInSignature, a, c.name)
	}
	switch a.Kind {
	case ioa.KindSendPkt:
		next := s.clone()
		next.entries = append(next.entries, entry{pkt: a.Pkt, status: statusPending})
		if c.lifetime > 0 {
			// Maximum packet lifetime: packets older than `lifetime`
			// subsequent sends expire.
			for i := 0; i < len(next.entries)-c.lifetime; i++ {
				if next.entries[i].status == statusPending {
					next.entries[i].status = statusLost
				}
			}
		}
		return next, nil
	case ioa.KindWake, ioa.KindFail, ioa.KindCrash:
		return s, nil
	case ioa.KindReceivePkt:
		for i := range s.entries {
			if s.entries[i].pkt == a.Pkt && c.deliverable(s, i) {
				next := s.clone()
				next.entries[i].status = statusDelivered
				if c.fifo {
					// Packets skipped over are lost: FIFO order forbids
					// delivering them later (the delivery set is monotone).
					for j := s.hwm + 1; j < i; j++ {
						if next.entries[j].status == statusPending {
							next.entries[j].status = statusLost
						}
					}
					next.hwm = i
				}
				return next, nil
			}
		}
		return nil, fmt.Errorf("%w: %s (not in transit or FIFO-blocked)", ioa.ErrNotEnabled, a)
	case ioa.KindInternal: // only lose^{d}: c.sig holds no other internal action
		for i := range s.entries {
			if s.entries[i].pkt == a.Pkt && s.entries[i].status == statusPending {
				next := s.clone()
				next.entries[i].status = statusLost
				return next, nil
			}
		}
		return nil, fmt.Errorf("%w: %s (packet not pending)", ioa.ErrNotEnabled, a)
	default:
		return nil, fmt.Errorf("%w: %s", ioa.ErrNotInSignature, a)
	}
}

// Enabled lists one receive_pkt action per currently deliverable packet,
// plus lose actions for pending packets when the channel is lossy.
func (c *Channel) Enabled(st ioa.State) []ioa.Action {
	s, ok := st.(State)
	if !ok {
		return nil
	}
	var out []ioa.Action
	for i := range s.entries {
		if c.deliverable(s, i) {
			out = append(out, ioa.ReceivePkt(c.dir, s.entries[i].pkt))
		}
	}
	if c.lossy {
		for i := range s.entries {
			if s.entries[i].status == statusPending {
				out = append(out, c.Lose(s.entries[i].pkt))
			}
		}
	}
	return out
}

// ClassOf assigns receive_pkt actions to ClassDeliver and lose actions to
// ClassLose. The paper's channel partition puts all outputs in one class.
func (c *Channel) ClassOf(a ioa.Action) ioa.Class {
	if a.Kind == ioa.KindInternal {
		return ClassLose
	}
	return ClassDeliver
}

// Classes lists the channel's fairness classes.
func (c *Channel) Classes() []ioa.Class {
	if c.lossy {
		return []ioa.Class{ClassDeliver, ClassLose}
	}
	return []ioa.Class{ClassDeliver}
}

// Residual returns a fingerprint of the state's future-relevant content:
// the currently deliverable packets (header and payload; the analysis ID
// is elided), in delivery-eligibility order. Packets already delivered or
// lost, and FIFO-blocked pending packets, can never influence a future
// transition, so two states with equal residuals are forward-bisimilar up
// to packet relabelling. The bounded model checker deduplicates on
// residuals.
func (c *Channel) Residual(st ioa.State) (string, error) {
	b, err := c.AppendResidual(nil, st)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// AppendResidual appends the Residual fingerprint to dst without
// intermediate string allocations: the model checker's dedup loop builds
// its per-state key into a reused buffer through this path.
func (c *Channel) AppendResidual(dst []byte, st ioa.State) ([]byte, error) {
	s, ok := st.(State)
	if !ok {
		return nil, fmt.Errorf("%w: want channel.State, got %T", ioa.ErrBadState, st)
	}
	dst = append(dst, "res{"...)
	for i := range s.entries {
		if c.deliverable(s, i) {
			dst = append(dst, '[')
			dst = append(dst, s.entries[i].pkt.Header...)
			dst = append(dst, '|')
			dst = append(dst, s.entries[i].pkt.Payload...)
			dst = append(dst, ']')
		}
	}
	return append(dst, '}'), nil
}

// AppendResidualCanon appends the residual with payload tokens replaced by
// canonical first-use indices drawn from canon. Deliverable entries are
// visited in send order (a structural order), so the explorer's symmetry
// reduction can merge residuals that differ only by a payload renaming.
func (c *Channel) AppendResidualCanon(dst []byte, st ioa.State, canon *ioa.Canon) ([]byte, error) {
	s, ok := st.(State)
	if !ok {
		return nil, fmt.Errorf("%w: want channel.State, got %T", ioa.ErrBadState, st)
	}
	dst = append(dst, "res{"...)
	for i := range s.entries {
		if c.deliverable(s, i) {
			dst = append(dst, '[')
			dst = append(dst, s.entries[i].pkt.Header...)
			dst = append(dst, '|')
			dst = canon.AppendMsg(dst, s.entries[i].pkt.Payload)
			dst = append(dst, ']')
		}
	}
	return append(dst, '}'), nil
}

// IsLoseAction reports whether a is an internal lose action of a lossy
// channel; shared by the schedulers and explorers that exempt loss from
// fairness or gate it behind an opt-in.
func IsLoseAction(a ioa.Action) bool {
	return a.Kind == ioa.KindInternal && strings.HasPrefix(a.Name, "lose")
}

// MarkLost returns a copy of st with the given packets dropped. This is
// the executable counterpart of Lemma 6.6 (the channel can lose any
// packets that have not been delivered): for any schedule leaving the
// channel with Q waiting and any subsequence Q' of Q, the same schedule
// can leave the channel with exactly Q' waiting.
func (c *Channel) MarkLost(st ioa.State, pkts ...ioa.Packet) (ioa.State, error) {
	s, ok := st.(State)
	if !ok {
		return nil, fmt.Errorf("%w: want channel.State, got %T", ioa.ErrBadState, st)
	}
	next := s.clone()
	for _, p := range pkts {
		found := false
		for i := range next.entries {
			if next.entries[i].pkt == p && next.entries[i].status == statusPending {
				next.entries[i].status = statusLost
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("channel: packet %s is not pending in %s", p, c.name)
		}
	}
	return next, nil
}

// MakeClean returns a copy of st with every pending packet dropped: the
// executable counterpart of Lemma 6.3 (every schedule can leave the
// channel in a clean state).
func (c *Channel) MakeClean(st ioa.State) (ioa.State, error) {
	s, ok := st.(State)
	if !ok {
		return nil, fmt.Errorf("%w: want channel.State, got %T", ioa.ErrBadState, st)
	}
	next := s.clone()
	for i := range next.entries {
		if next.entries[i].status == statusPending {
			next.entries[i].status = statusLost
		}
	}
	return next, nil
}

// KeepOnly returns a copy of st in which exactly the packets in keep (a
// subsequence of the in-transit packets, in send order) remain pending and
// all other pending packets are dropped: Lemma 6.6 specialised to
// selecting the waiting sequence the adversary needs.
func (c *Channel) KeepOnly(st ioa.State, keep []ioa.Packet) (ioa.State, error) {
	s, ok := st.(State)
	if !ok {
		return nil, fmt.Errorf("%w: want channel.State, got %T", ioa.ErrBadState, st)
	}
	want := make(map[ioa.Packet]bool, len(keep))
	for _, p := range keep {
		want[p] = true
	}
	next := s.clone()
	kept := 0
	for i := range next.entries {
		if next.entries[i].status != statusPending {
			continue
		}
		if want[next.entries[i].pkt] {
			kept++
			continue
		}
		next.entries[i].status = statusLost
	}
	if kept != len(keep) {
		return nil, fmt.Errorf("channel: %d of %d packets to keep are not in transit in %s", len(keep)-kept, len(keep), c.name)
	}
	return next, nil
}

// Duplicate returns a copy of st in which the idx-th pending packet (in
// send order, 0-based among the pending packets) has been duplicated: a
// clone with the same header and payload but the given fresh analysis ID
// is inserted immediately after the original, pending. This is fault
// surgery for harnesses that model a duplicating medium — the paper's
// channels never duplicate, so states produced this way lie outside
// scheds(PL) (the clone's receive_pkt has no matching send_pkt) and must
// only be judged against the data-link-level specifications. Inserting
// adjacent to the original, rather than appending, keeps a FIFO channel's
// delivery order faithful to a link that duplicates frames in place;
// id must be a fresh PacketIDs label so (PL2)-style uniqueness of the
// in-transit multiset is preserved.
func (c *Channel) Duplicate(st ioa.State, idx int, id uint64) (ioa.State, ioa.Packet, error) {
	s, ok := st.(State)
	if !ok {
		return nil, ioa.Packet{}, fmt.Errorf("%w: want channel.State, got %T", ioa.ErrBadState, st)
	}
	pending := -1
	for i := range s.entries {
		if s.entries[i].status != statusPending {
			continue
		}
		pending++
		if pending != idx {
			continue
		}
		clone := s.entries[i].pkt
		clone.ID = id
		next := State{entries: make([]entry, 0, len(s.entries)+1), hwm: s.hwm}
		next.entries = append(next.entries, s.entries[:i+1]...)
		next.entries = append(next.entries, entry{pkt: clone, status: statusPending})
		next.entries = append(next.entries, s.entries[i+1:]...)
		return next, clone, nil
	}
	return nil, ioa.Packet{}, fmt.Errorf("channel: no pending packet at index %d in %s (%d pending)", idx, c.name, pending+1)
}

// Corrupt returns a copy of st in which the idx-th pending packet (in
// send order, 0-based among the pending packets) has been replaced by
// mutate(p): fault surgery for harnesses that model a medium damaging
// frames in place. Like Duplicate, this lies outside the paper's
// channel semantics — the mutated packet's receive_pkt has no matching
// send_pkt — so states produced this way must only be judged against
// specifications that tolerate it (in the transport middlebox the
// corruption is caught by the frame CRC and becomes an effective
// loss). The mutated packet replaces the original at the same queue
// position, preserving FIFO structure; callers that keep the packet ID
// unchanged model in-place damage, callers minting a fresh ID model
// injection.
func (c *Channel) Corrupt(st ioa.State, idx int, mutate func(ioa.Packet) ioa.Packet) (ioa.State, ioa.Packet, error) {
	s, ok := st.(State)
	if !ok {
		return nil, ioa.Packet{}, fmt.Errorf("%w: want channel.State, got %T", ioa.ErrBadState, st)
	}
	pending := -1
	for i := range s.entries {
		if s.entries[i].status != statusPending {
			continue
		}
		pending++
		if pending != idx {
			continue
		}
		next := s.clone()
		next.entries[i].pkt = mutate(next.entries[i].pkt)
		return next, next.entries[i].pkt, nil
	}
	return nil, ioa.Packet{}, fmt.Errorf("channel: no pending packet at index %d in %s (%d pending)", idx, c.name, pending+1)
}

// Compact returns an equivalent state with the dead prefix discarded:
// delivered and lost entries, and (for a FIFO channel) pending entries
// at or below the high-water mark — which can never be delivered and
// would be marked lost by the next delivery anyway — are dropped, and
// the high-water mark is reset. The compacted state is
// forward-bisimilar to the original (same deliverable packets in the
// same eligibility order, same Residual), but its size is bounded by
// the in-transit count instead of the send history. A long replay of a
// session's packet stream (dlbench's channel layer) compacts
// periodically; without this, Step's copy-on-write clone makes the
// replay cost O(messages²).
//
// The surgery deliberately erases the send history, so SentCount and
// DeliveredCount restart from the compacted state; harnesses that
// account for totals must keep their own counters.
func (c *Channel) Compact(st ioa.State) (ioa.State, error) {
	s, ok := st.(State)
	if !ok {
		return nil, fmt.Errorf("%w: want channel.State, got %T", ioa.ErrBadState, st)
	}
	next := State{hwm: -1}
	for i := range s.entries {
		if c.deliverable(s, i) {
			next.entries = append(next.entries, s.entries[i])
		}
	}
	return next, nil
}

// Waiting reports whether the sequence Q is waiting in st in the paper's
// sense (Section 6.3): the packets of Q are pending and can be delivered
// consecutively, in order, starting now. For the non-FIFO channel this
// just requires each packet of Q to be pending and distinct; for the FIFO
// channel Q must additionally be a subsequence of the pending packets in
// send order beyond the high-water mark.
func (c *Channel) Waiting(st ioa.State, q []ioa.Packet) bool {
	s, ok := st.(State)
	if !ok {
		return false
	}
	if !c.fifo {
		seen := make(map[ioa.Packet]bool, len(q))
		for _, p := range q {
			if seen[p] {
				return false
			}
			seen[p] = true
			pending := false
			for i := range s.entries {
				if s.entries[i].pkt == p && s.entries[i].status == statusPending {
					pending = true
					break
				}
			}
			if !pending {
				return false
			}
		}
		return true
	}
	// FIFO: Q must appear in send order among deliverable packets.
	next := 0
	for i := range s.entries {
		if next == len(q) {
			break
		}
		if c.deliverable(s, i) && s.entries[i].pkt == q[next] {
			next++
		}
	}
	return next == len(q)
}
