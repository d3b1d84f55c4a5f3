package channel

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ioa"
	"repro/internal/spec"
)

func mkPkt(id uint64, h string) ioa.Packet {
	return ioa.Packet{ID: id, Header: ioa.Header(h), Payload: "m"}
}

// drive applies a schedule to a channel, returning the final state.
func drive(t *testing.T, c *Channel, actions ...ioa.Action) ioa.State {
	t.Helper()
	st := c.Start()
	var err error
	for _, a := range actions {
		st, err = c.Step(st, a)
		if err != nil {
			t.Fatalf("Step(%s): %v", a, err)
		}
	}
	return st
}

func TestChannelSignature(t *testing.T) {
	c := NewPermissive(ioa.TR)
	sig := c.Signature()
	if !sig.ContainsInput(ioa.SendPkt(ioa.TR, mkPkt(1, "h"))) {
		t.Error("send_pkt should be an input")
	}
	if !sig.ContainsOutput(ioa.ReceivePkt(ioa.TR, mkPkt(1, "h"))) {
		t.Error("receive_pkt should be an output")
	}
	if !sig.ContainsInput(ioa.Wake(ioa.TR)) || !sig.ContainsInput(ioa.Crash(ioa.TR)) {
		t.Error("status notifications should be inputs")
	}
	if sig.Contains(ioa.SendPkt(ioa.RT, mkPkt(1, "h"))) {
		t.Error("reverse-direction actions are foreign")
	}
	if len(sig.Int) != 0 {
		t.Error("non-lossy channel has no internal actions")
	}
	lossy := NewPermissive(ioa.TR, WithLoss())
	if len(lossy.Signature().Int) != 1 {
		t.Error("lossy channel should expose the lose family")
	}
}

func TestPermissiveDeliversAnyInTransit(t *testing.T) {
	c := NewPermissive(ioa.TR)
	st := drive(t, c,
		ioa.Wake(ioa.TR),
		ioa.SendPkt(ioa.TR, mkPkt(1, "a")),
		ioa.SendPkt(ioa.TR, mkPkt(2, "b")),
		ioa.SendPkt(ioa.TR, mkPkt(3, "c")),
	)
	enabled := c.Enabled(st)
	if len(enabled) != 3 {
		t.Fatalf("non-FIFO channel should offer all 3 packets, got %v", enabled)
	}
	// Deliver out of order: 3 then 1.
	st2, err := c.Step(st, ioa.ReceivePkt(ioa.TR, mkPkt(3, "c")))
	if err != nil {
		t.Fatalf("out-of-order delivery rejected: %v", err)
	}
	st2, err = c.Step(st2, ioa.ReceivePkt(ioa.TR, mkPkt(1, "a")))
	if err != nil {
		t.Fatalf("late delivery of earlier packet rejected by non-FIFO channel: %v", err)
	}
	if got := st2.(State).InTransit(); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("in transit = %v, want just packet 2", got)
	}
}

func TestFIFOOrderingAndLoss(t *testing.T) {
	c := NewPermissiveFIFO(ioa.TR)
	base := drive(t, c,
		ioa.SendPkt(ioa.TR, mkPkt(1, "a")),
		ioa.SendPkt(ioa.TR, mkPkt(2, "b")),
		ioa.SendPkt(ioa.TR, mkPkt(3, "c")),
	)
	// Delivering 2 skips (loses) 1 and blocks its later delivery.
	st, err := c.Step(base, ioa.ReceivePkt(ioa.TR, mkPkt(2, "b")))
	if err != nil {
		t.Fatalf("gap delivery rejected: %v", err)
	}
	if _, err := c.Step(st, ioa.ReceivePkt(ioa.TR, mkPkt(1, "a"))); !errors.Is(err, ioa.ErrNotEnabled) {
		t.Errorf("FIFO channel delivered an earlier packet after a later one: %v", err)
	}
	// Packet 1 is lost, not in transit.
	if got := st.(State).InTransit(); len(got) != 1 || got[0].ID != 3 {
		t.Errorf("in transit = %v, want just packet 3", got)
	}
	// Enabled offers only packets beyond the high-water mark.
	enabled := c.Enabled(st)
	if len(enabled) != 1 || enabled[0].Pkt.ID != 3 {
		t.Errorf("enabled = %v, want just packet 3", enabled)
	}
}

func TestChannelStatusInputsNoOp(t *testing.T) {
	c := NewPermissiveFIFO(ioa.TR)
	st := drive(t, c, ioa.SendPkt(ioa.TR, mkPkt(1, "a")))
	for _, a := range []ioa.Action{ioa.Wake(ioa.TR), ioa.Fail(ioa.TR), ioa.Crash(ioa.TR)} {
		next, err := c.Step(st, a)
		if err != nil {
			t.Fatalf("Step(%s): %v", a, err)
		}
		if !ioa.StatesEqual(st, next) {
			t.Errorf("%s changed the channel state", a)
		}
	}
}

func TestChannelStepErrors(t *testing.T) {
	c := NewPermissive(ioa.TR)
	if _, err := c.Step(c.Start(), ioa.ReceivePkt(ioa.TR, mkPkt(9, "x"))); !errors.Is(err, ioa.ErrNotEnabled) {
		t.Errorf("delivering a never-sent packet: err = %v", err)
	}
	if _, err := c.Step(c.Start(), ioa.SendMsg(ioa.TR, "m")); !errors.Is(err, ioa.ErrNotInSignature) {
		t.Errorf("foreign action: err = %v", err)
	}
	if _, err := c.Step(struct{ ioa.State }{}, ioa.Wake(ioa.TR)); !errors.Is(err, ioa.ErrBadState) {
		t.Errorf("bad state: err = %v", err)
	}
	// Double delivery.
	st := drive(t, c, ioa.SendPkt(ioa.TR, mkPkt(1, "a")), ioa.ReceivePkt(ioa.TR, mkPkt(1, "a")))
	if _, err := c.Step(st, ioa.ReceivePkt(ioa.TR, mkPkt(1, "a"))); !errors.Is(err, ioa.ErrNotEnabled) {
		t.Errorf("double delivery: err = %v", err)
	}
}

func TestLoseActions(t *testing.T) {
	c := NewPermissive(ioa.TR, WithLoss())
	st := drive(t, c, ioa.SendPkt(ioa.TR, mkPkt(1, "a")))
	enabled := c.Enabled(st)
	// One delivery plus one lose.
	if len(enabled) != 2 {
		t.Fatalf("enabled = %v, want delivery + lose", enabled)
	}
	st2, err := c.Step(st, c.Lose(mkPkt(1, "a")))
	if err != nil {
		t.Fatalf("lose: %v", err)
	}
	if len(st2.(State).InTransit()) != 0 {
		t.Error("lost packet still in transit")
	}
	if _, err := c.Step(st2, ioa.ReceivePkt(ioa.TR, mkPkt(1, "a"))); !errors.Is(err, ioa.ErrNotEnabled) {
		t.Error("lost packet still deliverable")
	}
	// Losing twice is not enabled.
	if _, err := c.Step(st2, c.Lose(mkPkt(1, "a"))); !errors.Is(err, ioa.ErrNotEnabled) {
		t.Error("losing a lost packet should not be enabled")
	}
	// Lose on a non-lossy channel is out of signature.
	plain := NewPermissive(ioa.TR)
	if _, err := plain.Step(st, plain.Lose(mkPkt(1, "a"))); err == nil {
		t.Error("non-lossy channel accepted a lose action")
	}
}

// TestStoredSignatureSeesOptions pins that each constructor stores the
// signature after its options ran: WithLoss must add the lose^{d} family
// both to Signature() and to what Step accepts.
func TestStoredSignatureSeesOptions(t *testing.T) {
	for _, ctor := range []struct {
		name string
		new  func(ioa.Dir, ...Option) *Channel
	}{{"NewPermissive", NewPermissive}, {"NewPermissiveFIFO", NewPermissiveFIFO}} {
		for _, lossy := range []bool{false, true} {
			var opts []Option
			want := ioa.Signature{
				In: []ioa.Pattern{
					{Kind: ioa.KindSendPkt, Dir: ioa.RT},
					{Kind: ioa.KindWake, Dir: ioa.RT},
					{Kind: ioa.KindFail, Dir: ioa.RT},
					{Kind: ioa.KindCrash, Dir: ioa.RT},
				},
				Out: []ioa.Pattern{{Kind: ioa.KindReceivePkt, Dir: ioa.RT}},
			}
			if lossy {
				opts = append(opts, WithLoss())
				want.Int = []ioa.Pattern{{Kind: ioa.KindInternal, Name: "lose^{r,t}"}}
			}
			c := ctor.new(ioa.RT, opts...)
			if got := c.Signature(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s lossy=%v: Signature() = %v, want %v", ctor.name, lossy, got, want)
			}
			st := drive(t, c, ioa.SendPkt(ioa.RT, mkPkt(1, "a")))
			_, err := c.Step(st, c.Lose(mkPkt(1, "a")))
			if lossy && err != nil {
				t.Errorf("%s WithLoss: lose rejected: %v", ctor.name, err)
			}
			if !lossy && !errors.Is(err, ioa.ErrNotInSignature) {
				t.Errorf("%s: lose err = %v, want ErrNotInSignature", ctor.name, err)
			}
		}
	}
}

func TestSurgeryMakeCleanAndKeepOnly(t *testing.T) {
	c := NewPermissive(ioa.TR)
	st := drive(t, c,
		ioa.SendPkt(ioa.TR, mkPkt(1, "a")),
		ioa.SendPkt(ioa.TR, mkPkt(2, "b")),
		ioa.SendPkt(ioa.TR, mkPkt(3, "c")),
	)
	clean, err := c.MakeClean(st)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.(State).Clean() {
		t.Error("MakeClean did not produce a clean state")
	}
	kept, err := c.KeepOnly(st, []ioa.Packet{mkPkt(2, "b")})
	if err != nil {
		t.Fatal(err)
	}
	if got := kept.(State).InTransit(); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("KeepOnly in transit = %v", got)
	}
	if _, err := c.KeepOnly(st, []ioa.Packet{mkPkt(9, "zz")}); err == nil {
		t.Error("KeepOnly with a non-transit packet should fail")
	}
	lost, err := c.MarkLost(st, mkPkt(1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := lost.(State).InTransit(); len(got) != 2 {
		t.Errorf("MarkLost left %v", got)
	}
	if _, err := c.MarkLost(lost, mkPkt(1, "a")); err == nil {
		t.Error("MarkLost of an already-lost packet should fail")
	}
}

// TestWaiting checks the paper's "Q waiting in s" predicate (Lemmas
// 6.4-6.7 substrate).
func TestWaiting(t *testing.T) {
	nonfifo := NewPermissive(ioa.TR)
	fifo := NewPermissiveFIFO(ioa.TR)
	sends := []ioa.Action{
		ioa.SendPkt(ioa.TR, mkPkt(1, "a")),
		ioa.SendPkt(ioa.TR, mkPkt(2, "b")),
		ioa.SendPkt(ioa.TR, mkPkt(3, "c")),
	}
	stN := drive(t, nonfifo, sends...)
	stF := drive(t, fifo, sends...)

	// Non-FIFO: any ordering of distinct in-transit packets waits.
	if !nonfifo.Waiting(stN, []ioa.Packet{mkPkt(3, "c"), mkPkt(1, "a")}) {
		t.Error("non-FIFO reordering should be waiting")
	}
	if nonfifo.Waiting(stN, []ioa.Packet{mkPkt(1, "a"), mkPkt(1, "a")}) {
		t.Error("repeated packet cannot be waiting")
	}
	if nonfifo.Waiting(stN, []ioa.Packet{mkPkt(9, "zz")}) {
		t.Error("unsent packet cannot be waiting")
	}

	// FIFO: only send-order subsequences wait.
	if !fifo.Waiting(stF, []ioa.Packet{mkPkt(1, "a"), mkPkt(3, "c")}) {
		t.Error("subsequence should be waiting in FIFO channel")
	}
	if fifo.Waiting(stF, []ioa.Packet{mkPkt(3, "c"), mkPkt(1, "a")}) {
		t.Error("reordering must not be waiting in FIFO channel")
	}

	// Lemma 6.4: a waiting sequence is deliverable in order.
	q := []ioa.Packet{mkPkt(1, "a"), mkPkt(3, "c")}
	st := stF
	var err error
	for _, p := range q {
		st, err = fifo.Step(st, ioa.ReceivePkt(ioa.TR, p))
		if err != nil {
			t.Fatalf("waiting sequence not deliverable: %v", err)
		}
	}
}

// TestLemma66KeepSubsequence: if Q is waiting, any subsequence Q' can be
// waiting after surgery.
func TestLemma66KeepSubsequence(t *testing.T) {
	fifo := NewPermissiveFIFO(ioa.TR)
	st := drive(t, fifo,
		ioa.SendPkt(ioa.TR, mkPkt(1, "a")),
		ioa.SendPkt(ioa.TR, mkPkt(2, "b")),
		ioa.SendPkt(ioa.TR, mkPkt(3, "c")),
	)
	sub := []ioa.Packet{mkPkt(2, "b")}
	st2, err := fifo.KeepOnly(st, sub)
	if err != nil {
		t.Fatal(err)
	}
	if !fifo.Waiting(st2, sub) {
		t.Error("kept subsequence not waiting")
	}
	if fifo.Waiting(st2, []ioa.Packet{mkPkt(1, "a")}) {
		t.Error("dropped packet still waiting")
	}
}

// TestChannelSchedulesSatisfyPL is the executable form of Lemma 6.1: fair
// finite schedules of the permissive channels, under well-formed inputs,
// satisfy the PL (resp. PL-FIFO) safety properties — for random delivery
// and loss choices.
func TestChannelSchedulesSatisfyPL(t *testing.T) {
	f := func(seed int64, fifo bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var c *Channel
		if fifo {
			c = NewPermissiveFIFO(ioa.TR, WithLoss())
		} else {
			c = NewPermissive(ioa.TR, WithLoss())
		}
		st := c.Start()
		var sched ioa.Schedule
		apply := func(a ioa.Action) bool {
			next, err := c.Step(st, a)
			if err != nil {
				return false
			}
			st = next
			sched = append(sched, a)
			return true
		}
		if !apply(ioa.Wake(ioa.TR)) {
			return false
		}
		nextID := uint64(1)
		for i := 0; i < 60; i++ {
			switch rng.Intn(3) {
			case 0:
				if !apply(ioa.SendPkt(ioa.TR, mkPkt(nextID, "h"))) {
					return false
				}
				nextID++
			default:
				enabled := c.Enabled(st)
				if len(enabled) == 0 {
					continue
				}
				if !apply(enabled[rng.Intn(len(enabled))]) {
					return false
				}
			}
		}
		v := spec.CheckPL(sched, ioa.TR)
		if fifo {
			v = spec.CheckPLFIFO(sched, ioa.TR)
		}
		return v.OK() && !v.Vacuous
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestExplicitVsLazyChannel cross-validates the DeliverySet formulation
// against the lazy executable channel: the delivery order induced by a
// randomly surgered delivery set is executable on the lazy channel, and is
// FIFO-legal when the set is monotone.
func TestExplicitVsLazyChannel(t *testing.T) {
	f := func(seed int64, nSends uint8, nDels uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := IdentityDeliverySet()
		for i := 0; i < int(nDels%8); i++ {
			s = s.Del(rng.Intn(10) + 1)
		}
		n := int(nSends%10) + 1
		order := s.DeliveryOrder(n)

		c := NewPermissiveFIFO(ioa.TR) // monotone set ⇒ FIFO-executable
		st := c.Start()
		var err error
		for i := 1; i <= n; i++ {
			st, err = c.Step(st, ioa.SendPkt(ioa.TR, mkPkt(uint64(i), "h")))
			if err != nil {
				return false
			}
		}
		for _, src := range order {
			st, err = c.Step(st, ioa.ReceivePkt(ioa.TR, mkPkt(uint64(src), "h")))
			if err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStateCounters(t *testing.T) {
	c := NewPermissive(ioa.TR)
	st := drive(t, c,
		ioa.SendPkt(ioa.TR, mkPkt(1, "a")),
		ioa.SendPkt(ioa.TR, mkPkt(2, "b")),
		ioa.ReceivePkt(ioa.TR, mkPkt(2, "b")),
	).(State)
	if st.SentCount() != 2 {
		t.Errorf("SentCount = %d", st.SentCount())
	}
	if st.DeliveredCount() != 1 {
		t.Errorf("DeliveredCount = %d", st.DeliveredCount())
	}
	if st.Clean() {
		t.Error("packet 1 still pending; not clean")
	}
}

func TestEquivFingerprintErasesIdentities(t *testing.T) {
	c := NewPermissive(ioa.TR)
	st1 := drive(t, c, ioa.SendPkt(ioa.TR, ioa.Packet{ID: 1, Header: "h", Payload: "x"}))
	st2 := drive(t, c, ioa.SendPkt(ioa.TR, ioa.Packet{ID: 9, Header: "h", Payload: "y"}))
	e1 := st1.(State).EquivFingerprint()
	e2 := st2.(State).EquivFingerprint()
	if e1 != e2 {
		t.Errorf("equivalent channel states have different equivalence fingerprints:\n%s\n%s", e1, e2)
	}
	if st1.Fingerprint() == st2.Fingerprint() {
		t.Error("exact fingerprints should differ")
	}
}

// BenchmarkChannelStep measures the channel's transition relation from a
// state with three packets in transit: one op is a send_pkt step and a
// receive_pkt step of the oldest packet, both from that state.
func BenchmarkChannelStep(b *testing.B) {
	for _, c := range []*Channel{NewPermissive(ioa.TR), NewPermissiveFIFO(ioa.TR)} {
		name := "non-fifo"
		if c.FIFO() {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			st := c.Start()
			for id := uint64(1); id <= 3; id++ {
				var err error
				if st, err = c.Step(st, ioa.SendPkt(ioa.TR, mkPkt(id, "h"))); err != nil {
					b.Fatal(err)
				}
			}
			send, recv := ioa.SendPkt(ioa.TR, mkPkt(4, "h")), ioa.ReceivePkt(ioa.TR, mkPkt(1, "h"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Step(st, send); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Step(st, recv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
