package core_test

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/ioa"
	"repro/internal/protocol"
)

func newSys(t *testing.T, fifo bool) *core.System {
	t.Helper()
	sys, err := core.NewSystem(protocol.NewABP(), fifo)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemComposition(t *testing.T) {
	sys := newSys(t, true)
	if !sys.CT.FIFO() || !sys.CR.FIFO() {
		t.Error("FIFO system should use FIFO channels")
	}
	nonfifo := newSys(t, false)
	if nonfifo.CT.FIFO() || nonfifo.CR.FIFO() {
		t.Error("non-FIFO system should use permissive channels")
	}
	if len(sys.Comp.Components()) != 4 {
		t.Errorf("system has %d components, want 4", len(sys.Comp.Components()))
	}
	// D'(A)'s signature hides packet actions.
	hsig := sys.Hidden.Signature()
	if hsig.ContainsOutput(ioa.SendPkt(ioa.TR, ioa.Packet{})) {
		t.Error("send_pkt should be hidden in D'(A)")
	}
	if !hsig.ContainsOutput(ioa.ReceiveMsg(ioa.TR, "m")) {
		t.Error("receive_msg should remain an output of D'(A)")
	}
	for _, in := range []ioa.Action{
		ioa.SendMsg(ioa.TR, "m"),
		ioa.Wake(ioa.TR), ioa.Fail(ioa.TR), ioa.Crash(ioa.TR),
		ioa.Wake(ioa.RT), ioa.Fail(ioa.RT), ioa.Crash(ioa.RT),
	} {
		if !hsig.ContainsInput(in) {
			t.Errorf("%s should be an input of D'(A)", in)
		}
	}
}

func TestSystemWithLossyChannels(t *testing.T) {
	sys, err := core.NewSystem(protocol.NewABP(), true, core.WithChannelOptions(channel.WithLoss()))
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.CT.Signature().Int) == 0 || len(sys.CR.Signature().Int) == 0 {
		t.Error("channels should be lossy")
	}
}

func TestSystemAccessors(t *testing.T) {
	sys := newSys(t, true)
	st := sys.Comp.Start()
	ts, err := sys.TransmitterState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !ioa.StatesEqual(ts, sys.Protocol.T.Start()) {
		t.Error("transmitter start state mismatch")
	}
	rs, err := sys.ReceiverState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !ioa.StatesEqual(rs, sys.Protocol.R.Start()) {
		t.Error("receiver start state mismatch")
	}
	for _, x := range []ioa.Station{ioa.T, ioa.R} {
		if sys.StationAutomaton(x) == nil {
			t.Fatalf("no automaton for %s", x)
		}
		if _, err := sys.StationState(st, x); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Channel(ioa.TR) != sys.CT || sys.Channel(ioa.RT) != sys.CR {
		t.Error("Channel accessor wrong")
	}
}

func TestSystemSurgery(t *testing.T) {
	sys := newSys(t, true)
	st := sys.Comp.Start()
	// Put two packets in transit t→r.
	var err error
	for _, a := range []ioa.Action{
		ioa.Wake(ioa.TR), ioa.Wake(ioa.RT),
		ioa.SendMsg(ioa.TR, "m"),
	} {
		st, err = sys.Comp.Step(st, a)
		if err != nil {
			t.Fatal(err)
		}
	}
	p1 := ioa.Packet{ID: 1, Header: "data/0", Payload: "m"}
	p2 := ioa.Packet{ID: 2, Header: "data/0", Payload: "m"}
	for _, p := range []ioa.Packet{p1, p2} {
		st, err = sys.Comp.Step(st, ioa.SendPkt(ioa.TR, p))
		if err != nil {
			t.Fatal(err)
		}
	}
	inT, err := sys.InTransit(st, ioa.TR)
	if err != nil {
		t.Fatal(err)
	}
	if len(inT) != 2 {
		t.Fatalf("in transit = %v", inT)
	}
	// KeepOnly the second.
	st2, err := sys.KeepOnlyInTransit(st, ioa.TR, []ioa.Packet{p2})
	if err != nil {
		t.Fatal(err)
	}
	inT, err = sys.InTransit(st2, ioa.TR)
	if err != nil {
		t.Fatal(err)
	}
	if len(inT) != 1 || inT[0] != p2 {
		t.Errorf("after KeepOnly: %v", inT)
	}
	// CleanChannels empties both.
	st3, err := sys.CleanChannels(st)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := sys.ChannelState(st3, ioa.TR)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Clean() {
		t.Error("CleanChannels left a dirty channel")
	}
	// Surgery must not disturb the protocol automata.
	ts3, err := sys.TransmitterState(st3)
	if err != nil {
		t.Fatal(err)
	}
	ts0, err := sys.TransmitterState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !ioa.StatesEqual(ts3, ts0) {
		t.Error("surgery changed the transmitter state")
	}
}

// BenchmarkSystemStep measures the composed step that the explorer, the
// simulator and the pumps take: Composition.Enabled on one state of the
// e11 system (Stenning over C̄), then one Step per enabled action. The
// state follows four e11 inputs and eight locally-controlled steps; in it
// both stations can send and both channels can deliver (five actions).
func BenchmarkSystemStep(b *testing.B) {
	sys, err := core.NewSystem(protocol.NewStenning(), false)
	if err != nil {
		b.Fatal(err)
	}
	st := sys.Comp.Start()
	step := func(a ioa.Action) {
		if st, err = sys.Comp.Step(st, a); err != nil {
			b.Fatal(err)
		}
	}
	for _, a := range []ioa.Action{ioa.Wake(ioa.TR), ioa.Wake(ioa.RT), ioa.SendMsg(ioa.TR, "m1"), ioa.SendMsg(ioa.TR, "m2")} {
		step(a)
	}
	for i := 0; i < 8; i++ {
		en := sys.Comp.Enabled(st)
		step(en[3*i%len(en)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range sys.Comp.Enabled(st) {
			if _, err := sys.Comp.Step(st, a); err != nil {
				b.Fatal(err)
			}
		}
	}
}
