package ioa

import (
	"fmt"
	"strings"
)

// CompositeState is the state of a composition: a vector of component
// states (Section 2.5.2). It is exported so that adversaries and tests can
// inspect per-component states of a composed system.
type CompositeState struct {
	Parts []State
}

// Fingerprint joins the component fingerprints.
func (c CompositeState) Fingerprint() string { return string(c.AppendFingerprint(nil)) }

// AppendFingerprint appends the joined component fingerprints to dst,
// taking each component's allocation-free fast path when available.
func (c CompositeState) AppendFingerprint(dst []byte) []byte {
	dst = append(dst, "⟨"...)
	for i, s := range c.Parts {
		if i > 0 {
			dst = append(dst, " ∥ "...)
		}
		dst = AppendFingerprint(dst, s)
	}
	return append(dst, "⟩"...)
}

// EquivFingerprint joins the component equivalence fingerprints; a
// component that does not implement EquivState contributes its exact
// fingerprint.
func (c CompositeState) EquivFingerprint() string {
	parts := make([]string, len(c.Parts))
	for i, s := range c.Parts {
		if es, ok := s.(EquivState); ok {
			parts[i] = es.EquivFingerprint()
		} else {
			parts[i] = s.Fingerprint()
		}
	}
	return "⟨" + strings.Join(parts, " ∥ ") + "⟩"
}

var (
	_ State               = CompositeState{}
	_ EquivState          = CompositeState{}
	_ AppendFingerprinter = CompositeState{}
)

// Composition is the composition A = Π A_i of a strongly compatible
// collection of automata (Section 2.5.2). Each step of the composition
// consists of every component having the action in its signature
// performing it concurrently.
type Composition struct {
	name       string
	components []Automaton
	sigs       []Signature // sigs[i] is components[i].Signature()
	sig        Signature
}

var _ Automaton = (*Composition)(nil)

// Compose builds the composition of the given automata. It returns
// ErrIncompatible (wrapped) if the signatures are not strongly compatible.
func Compose(name string, components ...Automaton) (*Composition, error) {
	sigs := make([]Signature, len(components))
	for i, c := range components {
		sigs[i] = c.Signature()
		if err := sigs[i].Validate(); err != nil {
			return nil, fmt.Errorf("ioa: component %s: %w", c.Name(), err)
		}
	}
	sig, err := ComposeSignatures(sigs...)
	if err != nil {
		return nil, err
	}
	return &Composition{name: name, components: components, sigs: sigs, sig: sig}, nil
}

// Name returns the composition's name.
func (c *Composition) Name() string { return c.name }

// Signature returns the composed signature.
func (c *Composition) Signature() Signature { return c.sig }

// Components returns the component automata, in composition order.
func (c *Composition) Components() []Automaton {
	return append([]Automaton(nil), c.components...)
}

// ComponentIndex returns the index of the component with the given name,
// or -1 if absent.
func (c *Composition) ComponentIndex(name string) int {
	for i, m := range c.components {
		if m.Name() == name {
			return i
		}
	}
	return -1
}

// ComponentState extracts the named component's state from a composite
// state: the paper's s[i].
func (c *Composition) ComponentState(s State, name string) (State, error) {
	cs, ok := s.(CompositeState)
	if !ok {
		return nil, fmt.Errorf("%w: want CompositeState, got %T", ErrBadState, s)
	}
	i := c.ComponentIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("ioa: no component named %q in %s", name, c.name)
	}
	return cs.Parts[i], nil
}

// WithComponentState returns a copy of composite state s with the named
// component's state replaced. It is used by adversaries that perform the
// paper's "surgery" on channel states (Lemmas 6.3 and 6.6).
func (c *Composition) WithComponentState(s State, name string, part State) (State, error) {
	cs, ok := s.(CompositeState)
	if !ok {
		return nil, fmt.Errorf("%w: want CompositeState, got %T", ErrBadState, s)
	}
	i := c.ComponentIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("ioa: no component named %q in %s", name, c.name)
	}
	parts := append([]State(nil), cs.Parts...)
	parts[i] = part
	return CompositeState{Parts: parts}, nil
}

// Start returns the vector of component start states.
func (c *Composition) Start() State {
	parts := make([]State, len(c.components))
	for i, m := range c.components {
		parts[i] = m.Start()
	}
	return CompositeState{Parts: parts}
}

// Step performs action a: every component with a in its signature steps on
// it; the others are unchanged.
func (c *Composition) Step(s State, a Action) (State, error) {
	cs, ok := s.(CompositeState)
	if !ok {
		return nil, fmt.Errorf("%w: want CompositeState, got %T", ErrBadState, s)
	}
	if len(cs.Parts) != len(c.components) {
		return nil, fmt.Errorf("%w: %d parts for %d components", ErrBadState, len(cs.Parts), len(c.components))
	}
	if !c.sig.Contains(a) {
		return nil, fmt.Errorf("%w: %s not in signature of %s", ErrNotInSignature, a, c.name)
	}
	parts := append([]State(nil), cs.Parts...)
	for i, m := range c.components {
		if !c.sigs[i].Contains(a) {
			continue
		}
		next, err := m.Step(cs.Parts[i], a)
		if err != nil {
			return nil, fmt.Errorf("ioa: component %s: %w", m.Name(), err)
		}
		parts[i] = next
	}
	return CompositeState{Parts: parts}, nil
}

// Enabled returns the union of the components' enabled locally-controlled
// actions. Because at most one component controls each action (strong
// compatibility) and all components are input-enabled, every returned
// action is enabled in the composition.
func (c *Composition) Enabled(s State) []Action {
	cs, ok := s.(CompositeState)
	if !ok {
		return nil
	}
	var out []Action
	for i, m := range c.components {
		out = append(out, m.Enabled(cs.Parts[i])...)
	}
	return out
}

// ClassOf returns the fairness class of a locally-controlled action,
// qualified by the owning component's name. part(A) is the union of the
// component partitions (Section 2.5.2).
func (c *Composition) ClassOf(a Action) Class {
	for i, m := range c.components {
		if c.sigs[i].ContainsLocal(a) {
			return Class(m.Name()) + "/" + m.ClassOf(a)
		}
	}
	return ""
}

// Classes returns the union of component classes, qualified by component
// name.
func (c *Composition) Classes() []Class {
	var out []Class
	for _, m := range c.components {
		for _, cl := range m.Classes() {
			out = append(out, Class(m.Name())+"/"+cl)
		}
	}
	return out
}

// ProjectExecution returns α|A_i for the named component: the component's
// execution obtained by deleting steps on actions outside its signature
// and projecting the remaining states (Lemma 2.2).
func (c *Composition) ProjectExecution(e *Execution, name string) (*Execution, error) {
	i := c.ComponentIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("ioa: no component named %q in %s", name, c.name)
	}
	first, ok := e.States[0].(CompositeState)
	if !ok {
		return nil, fmt.Errorf("%w: want CompositeState, got %T", ErrBadState, e.States[0])
	}
	proj := NewExecution(first.Parts[i])
	for k, a := range e.Actions {
		if !c.sigs[i].Contains(a) {
			continue
		}
		next, ok := e.States[k+1].(CompositeState)
		if !ok {
			return nil, fmt.Errorf("%w: want CompositeState, got %T", ErrBadState, e.States[k+1])
		}
		proj.Append(a, next.Parts[i])
	}
	return proj, nil
}
