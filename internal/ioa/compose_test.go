package ioa

import (
	"fmt"
	"testing"
)

// echoState is the state of the test automaton: messages accepted but not
// yet echoed.
type echoState struct {
	queue []Message
}

func (s echoState) Fingerprint() string { return fmt.Sprintf("echo%v", s.queue) }

// echo is a toy automaton: it inputs send_msg^{t,r}(m) and outputs
// receive_msg^{t,r}(m), FIFO. It exercises composition mechanics without
// channels.
type echo struct{}

func (echo) Name() string { return "echo" }

func (echo) Signature() Signature {
	return Signature{
		In:  []Pattern{{Kind: KindSendMsg, Dir: TR}},
		Out: []Pattern{{Kind: KindReceiveMsg, Dir: TR}},
	}
}

func (echo) Start() State { return echoState{} }

func (echo) Step(st State, a Action) (State, error) {
	s, ok := st.(echoState)
	if !ok {
		return nil, ErrBadState
	}
	switch a.Kind {
	case KindSendMsg:
		return echoState{queue: append(append([]Message(nil), s.queue...), a.Msg)}, nil
	case KindReceiveMsg:
		if len(s.queue) == 0 || s.queue[0] != a.Msg {
			return nil, ErrNotEnabled
		}
		return echoState{queue: append([]Message(nil), s.queue[1:]...)}, nil
	default:
		return nil, ErrNotInSignature
	}
}

func (echo) Enabled(st State) []Action {
	s, ok := st.(echoState)
	if !ok || len(s.queue) == 0 {
		return nil
	}
	return []Action{ReceiveMsg(TR, s.queue[0])}
}

func (echo) ClassOf(Action) Class { return "echo" }

func (echo) Classes() []Class { return []Class{"echo"} }

// sink counts receive_msg^{t,r} inputs.
type sinkState struct{ n int }

func (s sinkState) Fingerprint() string { return fmt.Sprintf("sink%d", s.n) }

type sink struct{}

func (sink) Name() string { return "sink" }
func (sink) Signature() Signature {
	return Signature{In: []Pattern{{Kind: KindReceiveMsg, Dir: TR}}}
}
func (sink) Start() State { return sinkState{} }
func (sink) Step(st State, a Action) (State, error) {
	s, ok := st.(sinkState)
	if !ok {
		return nil, ErrBadState
	}
	if a.Kind != KindReceiveMsg {
		return nil, ErrNotInSignature
	}
	return sinkState{n: s.n + 1}, nil
}
func (sink) Enabled(State) []Action { return nil }
func (sink) ClassOf(Action) Class   { return "" }
func (sink) Classes() []Class       { return nil }

func TestComposeEchoSink(t *testing.T) {
	comp, err := Compose("pair", echo{}, sink{})
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	st := comp.Start()
	st, err = comp.Step(st, SendMsg(TR, "a"))
	if err != nil {
		t.Fatalf("Step(send_msg): %v", err)
	}
	enabled := comp.Enabled(st)
	if len(enabled) != 1 || enabled[0] != ReceiveMsg(TR, "a") {
		t.Fatalf("Enabled = %v, want [receive_msg(a)]", enabled)
	}
	// receive_msg is shared: output of echo, input of sink; one step must
	// advance both components.
	st, err = comp.Step(st, ReceiveMsg(TR, "a"))
	if err != nil {
		t.Fatalf("Step(receive_msg): %v", err)
	}
	es, err := comp.ComponentState(st, "echo")
	if err != nil {
		t.Fatal(err)
	}
	if len(es.(echoState).queue) != 0 {
		t.Error("echo queue should be empty after the shared step")
	}
	ss, err := comp.ComponentState(st, "sink")
	if err != nil {
		t.Fatal(err)
	}
	if ss.(sinkState).n != 1 {
		t.Errorf("sink count = %d, want 1", ss.(sinkState).n)
	}
}

func TestCompositionSignatureClassification(t *testing.T) {
	comp, err := Compose("pair", echo{}, sink{})
	if err != nil {
		t.Fatal(err)
	}
	sig := comp.Signature()
	if !sig.ContainsOutput(ReceiveMsg(TR, "x")) {
		t.Error("receive_msg should be an output of the composition")
	}
	if sig.ContainsInput(ReceiveMsg(TR, "x")) {
		t.Error("receive_msg should not be an input of the composition")
	}
	if !sig.ContainsInput(SendMsg(TR, "x")) {
		t.Error("send_msg should be an input of the composition")
	}
}

func TestCompositionClassQualification(t *testing.T) {
	comp, err := Compose("pair", echo{}, sink{})
	if err != nil {
		t.Fatal(err)
	}
	if got := comp.ClassOf(ReceiveMsg(TR, "x")); got != "echo/echo" {
		t.Errorf("ClassOf = %q, want echo/echo", got)
	}
	classes := comp.Classes()
	if len(classes) != 1 || classes[0] != "echo/echo" {
		t.Errorf("Classes = %v", classes)
	}
}

func TestCompositionStepErrors(t *testing.T) {
	comp, err := Compose("pair", echo{}, sink{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Step(comp.Start(), Wake(TR)); err == nil {
		t.Error("expected error for action outside the composed signature")
	}
	if _, err := comp.Step(sinkState{}, SendMsg(TR, "x")); err == nil {
		t.Error("expected error for a non-composite state")
	}
	if _, err := comp.Step(comp.Start(), ReceiveMsg(TR, "ghost")); err == nil {
		t.Error("expected error for a non-enabled output")
	}
}

func TestComposeIncompatible(t *testing.T) {
	if _, err := Compose("dup", echo{}, echo{}); err == nil {
		t.Error("two automata sharing an output must not compose")
	}
}

func TestWithComponentState(t *testing.T) {
	comp, err := Compose("pair", echo{}, sink{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := comp.WithComponentState(comp.Start(), "sink", sinkState{n: 42})
	if err != nil {
		t.Fatal(err)
	}
	got, err := comp.ComponentState(st, "sink")
	if err != nil {
		t.Fatal(err)
	}
	if got.(sinkState).n != 42 {
		t.Errorf("component state = %v, want n=42", got)
	}
	if _, err := comp.WithComponentState(comp.Start(), "nope", sinkState{}); err == nil {
		t.Error("expected error for unknown component")
	}
}

func TestProjectExecution(t *testing.T) {
	comp, err := Compose("pair", echo{}, sink{})
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecution(comp.Start())
	st := comp.Start()
	for _, a := range []Action{SendMsg(TR, "a"), SendMsg(TR, "b"), ReceiveMsg(TR, "a")} {
		st, err = comp.Step(st, a)
		if err != nil {
			t.Fatal(err)
		}
		exec.Append(a, st)
	}
	proj, err := comp.ProjectExecution(exec, "sink")
	if err != nil {
		t.Fatal(err)
	}
	// sink participates only in the receive_msg step.
	if proj.Len() != 1 || proj.Actions[0] != ReceiveMsg(TR, "a") {
		t.Errorf("projection = %v", proj.Actions)
	}
	if proj.Last().(sinkState).n != 1 {
		t.Errorf("projected final state = %v", proj.Last())
	}
	full, err := comp.ProjectExecution(exec, "echo")
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != 3 {
		t.Errorf("echo participates in all steps, got %d", full.Len())
	}
}

// sigCounter wraps an automaton and counts calls to its Signature.
type sigCounter struct {
	Automaton
	calls int
}

func (c *sigCounter) Signature() Signature {
	c.calls++
	return c.Automaton.Signature()
}

// TestCompositionReadsSignaturesOnce pins that a composition reads each
// component's signature when it is built and routes every later step,
// class lookup and projection through the stored copy.
func TestCompositionReadsSignaturesOnce(t *testing.T) {
	e, s := &sigCounter{Automaton: echo{}}, &sigCounter{Automaton: sink{}}
	comp, err := Compose("pair", e, s)
	if err != nil {
		t.Fatal(err)
	}
	built := e.calls + s.calls
	st := comp.Start()
	exec := NewExecution(st)
	for _, a := range []Action{SendMsg(TR, "a"), SendMsg(TR, "b"), ReceiveMsg(TR, "a")} {
		comp.Enabled(st)
		comp.ClassOf(a)
		if st, err = comp.Step(st, a); err != nil {
			t.Fatal(err)
		}
		exec.Append(a, st)
	}
	for _, name := range []string{"echo", "sink"} {
		if _, err := comp.ProjectExecution(exec, name); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.calls + s.calls; got != built {
		t.Errorf("Signature called %d times after Compose, want 0", got-built)
	}
}

func TestHiddenDelegation(t *testing.T) {
	comp, err := Compose("pair", echo{}, sink{})
	if err != nil {
		t.Fatal(err)
	}
	h := Hide(comp, []Pattern{{Kind: KindReceiveMsg, Dir: TR}})
	if h.Signature().ContainsOutput(ReceiveMsg(TR, "x")) {
		t.Error("hidden output still classified as output")
	}
	if !h.Signature().ContainsInternal(ReceiveMsg(TR, "x")) {
		t.Error("hidden output should be internal")
	}
	st, err := h.Step(h.Start(), SendMsg(TR, "a"))
	if err != nil {
		t.Fatalf("Hidden.Step: %v", err)
	}
	if len(h.Enabled(st)) != 1 {
		t.Error("Hidden.Enabled should delegate")
	}
	if h.Name() != comp.Name() || h.Inner() != Automaton(comp) {
		t.Error("Hidden accessors should delegate")
	}
	if len(h.Classes()) != len(comp.Classes()) {
		t.Error("Hidden.Classes should delegate")
	}
	if h.ClassOf(ReceiveMsg(TR, "x")) != comp.ClassOf(ReceiveMsg(TR, "x")) {
		t.Error("Hidden.ClassOf should delegate")
	}
}

func TestExecutionValidate(t *testing.T) {
	comp, err := Compose("pair", echo{}, sink{})
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecution(comp.Start())
	st, err := comp.Step(comp.Start(), SendMsg(TR, "a"))
	if err != nil {
		t.Fatal(err)
	}
	exec.Append(SendMsg(TR, "a"), st)
	if err := exec.Validate(comp); err != nil {
		t.Errorf("valid execution rejected: %v", err)
	}
	// Corrupt the recorded successor.
	bad := &Execution{States: []State{comp.Start(), comp.Start()}, Actions: []Action{SendMsg(TR, "a")}}
	if err := bad.Validate(comp); err == nil {
		t.Error("expected validation failure for wrong successor state")
	}
	short := &Execution{States: []State{comp.Start()}, Actions: []Action{SendMsg(TR, "a")}}
	if err := short.Validate(comp); err == nil {
		t.Error("expected structural validation failure")
	}
}

func TestSchedulePrefixBehaviorProjection(t *testing.T) {
	sched := Schedule{SendMsg(TR, "a"), Wake(TR), ReceiveMsg(TR, "a")}
	sig := echo{}.Signature()
	proj := sched.Project(sig)
	if len(proj) != 2 {
		t.Errorf("Project kept %d actions, want 2 (wake is foreign)", len(proj))
	}
	beh := sched.Behavior(sig)
	if len(beh) != 2 {
		t.Errorf("Behavior kept %d actions, want 2", len(beh))
	}
	ins := sched.Inputs(sig)
	if len(ins) != 1 || ins[0].Kind != KindSendMsg {
		t.Errorf("Inputs = %v", ins)
	}
}

func TestExecutionPrefix(t *testing.T) {
	comp, err := Compose("pair", echo{}, sink{})
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecution(comp.Start())
	st := comp.Start()
	for _, m := range []Message{"a", "b"} {
		st, err = comp.Step(st, SendMsg(TR, m))
		if err != nil {
			t.Fatal(err)
		}
		exec.Append(SendMsg(TR, m), st)
	}
	p := exec.Prefix(1)
	if p.Len() != 1 {
		t.Fatalf("Prefix(1).Len() = %d", p.Len())
	}
	// Mutating the prefix must not affect the original.
	p.Actions[0] = Wake(TR)
	if exec.Actions[0].Kind != KindSendMsg {
		t.Error("Prefix aliases the original execution")
	}
}

func TestStatesEquivalentErrors(t *testing.T) {
	if _, err := StatesEquivalent(echoState{}, echoState{}); err == nil {
		t.Error("echoState does not implement EquivState; expected error")
	}
}

func TestCompositeStateEquivFingerprint(t *testing.T) {
	// Components without EquivState fall back to the exact fingerprint.
	inner := echoState{queue: []Message{"x"}}
	cs := CompositeState{Parts: []State{inner}}
	if cs.EquivFingerprint() != "⟨"+inner.Fingerprint()+"⟩" {
		t.Errorf("EquivFingerprint fallback mismatch: %s", cs.EquivFingerprint())
	}
}
