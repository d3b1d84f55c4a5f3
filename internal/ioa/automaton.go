package ioa

import (
	"errors"
	"fmt"
)

// State is an automaton state. Fingerprint must return a canonical
// encoding: two states of the same automaton are equal exactly when their
// fingerprints are equal. Implementations must be value-like; Step must
// never mutate a state it was given.
type State interface {
	Fingerprint() string
}

// AppendFingerprinter is an optional fast path for State (and monitor)
// implementations: AppendFingerprint appends exactly the bytes that
// Fingerprint returns to dst and returns the extended slice. It lets
// hot loops — the model checker builds one dedup key per explored state
// — assemble keys into a reused buffer with no intermediate string
// allocations. Implementations must append, never truncate or otherwise
// modify dst[:len(dst)].
type AppendFingerprinter interface {
	AppendFingerprint(dst []byte) []byte
}

// AppendFingerprint appends s's canonical fingerprint to dst, using the
// allocation-free fast path when s implements AppendFingerprinter and
// falling back to Fingerprint otherwise.
func AppendFingerprint(dst []byte, s State) []byte {
	if af, ok := s.(AppendFingerprinter); ok {
		return af.AppendFingerprint(dst)
	}
	return append(dst, s.Fingerprint()...)
}

// EquivState is implemented by states that additionally support the
// paper's message-independence equivalence ≡ (Section 5.3.1): the
// equivalence fingerprint erases message identities (payload contents)
// while preserving everything a message-independent protocol may branch
// on. Two states s, s' satisfy s ≡ s' exactly when their equivalence
// fingerprints are equal.
type EquivState interface {
	State
	EquivFingerprint() string
}

// Class names a fairness equivalence class of locally-controlled actions:
// one element of the partition part(A) (Section 2.2). A fair execution
// gives turns to each class.
type Class string

// Automaton is an I/O automaton (Section 2.2) with an executable
// transition relation. Automata must be input-enabled: Step must accept
// every input action of the signature in every state.
//
// Nondeterminism is expressed through Enabled: the automaton reports which
// locally-controlled actions are currently enabled, and the environment
// (a scheduler or adversary) picks one. Step itself must be deterministic:
// a given (state, action) pair always yields the same successor. This is a
// restriction relative to the full model that every protocol and channel
// in this repository satisfies, and that the replay arguments of the
// paper's Sections 7 and 8 rely on (determinism up to the equivalence ≡).
type Automaton interface {
	// Name identifies the automaton, used to qualify internal actions and
	// fairness classes in compositions.
	Name() string
	// Signature returns the automaton's action signature. A signature is
	// a fixed part of the automaton, so callers such as Compose read it
	// once and keep it: the returned value (and the pattern slices it
	// shares) is immutable, and callers must not mutate it.
	Signature() Signature
	// Start returns the start state. Automata in this repository have a
	// unique start state (as required of crashing automata, Section 5.3.2).
	Start() State
	// Step returns the successor state after performing action a in state
	// s. It returns an error if a is not an action of the automaton, or is
	// a locally-controlled action not enabled in s.
	Step(s State, a Action) (State, error)
	// Enabled returns the locally-controlled actions enabled in s. For
	// action families with infinitely many enabled instances, a finite set
	// of representatives is returned (channels return one receive_pkt per
	// deliverable packet; protocols return concrete packets to send).
	Enabled(s State) []Action
	// ClassOf returns the fairness class of a locally-controlled action.
	ClassOf(a Action) Class
	// Classes lists the automaton's fairness classes.
	Classes() []Class
}

// ErrNotEnabled is returned by Step when asked to perform a
// locally-controlled action that is not enabled in the given state.
var ErrNotEnabled = errors.New("ioa: action not enabled")

// ErrNotInSignature is returned by Step when the action is not in the
// automaton's signature.
var ErrNotInSignature = errors.New("ioa: action not in signature")

// ErrBadState is returned when a state of the wrong dynamic type is passed
// to an automaton.
var ErrBadState = errors.New("ioa: state has wrong type for automaton")

// StatesEqual reports whether two states are equal, via fingerprints.
func StatesEqual(a, b State) bool {
	return a.Fingerprint() == b.Fingerprint()
}

// StatesEquivalent reports whether two states are related by the
// message-independence equivalence ≡. Both must implement EquivState.
func StatesEquivalent(a, b State) (bool, error) {
	ea, ok := a.(EquivState)
	if !ok {
		return false, fmt.Errorf("%w: %T does not support equivalence", ErrBadState, a)
	}
	eb, ok := b.(EquivState)
	if !ok {
		return false, fmt.Errorf("%w: %T does not support equivalence", ErrBadState, b)
	}
	return ea.EquivFingerprint() == eb.EquivFingerprint(), nil
}

// CheckEnabled verifies that action a appears among Enabled(s) of
// automaton m, comparing actions for exact equality. It is a helper for
// Step implementations and the replay drivers.
func CheckEnabled(m Automaton, s State, a Action) error {
	for _, e := range m.Enabled(s) {
		if e == a {
			return nil
		}
	}
	return fmt.Errorf("%w: %s in state %s of %s", ErrNotEnabled, a, s.Fingerprint(), m.Name())
}
