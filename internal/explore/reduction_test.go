package explore

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/ioa"
	"repro/internal/protocol"
)

// replayViolation re-executes a violating schedule from the start state
// through the composition and a fresh monitor, returning the violation
// the replay produces (nil if the schedule is clean). Reduced searches
// must return traces that replay to the same property unreduced.
func replayViolation(t *testing.T, sys *core.System, mon Monitor, sched ioa.Schedule) *Violation {
	t.Helper()
	st := sys.Comp.Start()
	extSig := sys.Hidden.Signature()
	for _, a := range sched {
		var err error
		st, err = sys.Comp.Step(st, a)
		if err != nil {
			t.Fatalf("replaying %s: %v", a, err)
		}
		if extSig.ContainsExternal(a) {
			var v *Violation
			mon, v = mon.Step(a)
			if v != nil {
				return v
			}
		}
	}
	return nil
}

// TestReductionSoundnessMatrix runs every registered protocol over both
// channel kinds under four reduction settings and checks the invariants
// the reductions promise. The base and sym variants run the unreduced
// reference expansion; por and both are what a search does without and
// with Config.Symmetry:
//
//   - identical verdict (violation found or not, same property);
//   - violating traces replay to the same violation unreduced;
//   - identical Exhausted/DepthLimited statuses;
//   - POR alone changes nothing observable (states byte-identical);
//   - symmetry explores at most as many states, and the combination
//     explores exactly what symmetry alone does.
func TestReductionSoundnessMatrix(t *testing.T) {
	type variant struct {
		name     string
		sym, por bool
	}
	variants := []variant{
		{"base", false, false},
		{"sym", true, false},
		{"por", false, true},
		{"both", true, true},
	}
	type workload struct {
		proto     string
		fifo      bool
		inputs    []ioa.Action
		depth     int
		inTransit int // 0 means 2
		loss      bool
		// states, when nonzero, pins the unreduced state count.
		states int
		long   bool // skipped under -short
	}
	var loads []workload
	for _, name := range protocol.Names() {
		for _, fifo := range []bool{true, false} {
			loads = append(loads, workload{proto: name, fifo: fifo, inputs: pool(2), depth: 12})
		}
	}
	// Violation-bearing workloads: the reorder bug needs a sequence wrap,
	// the crash bug a receiver crash; plus a lossy load so POR's
	// same-channel lose ordering is exercised.
	loads = append(loads,
		workload{proto: "gbn", fifo: false, inputs: pool(3), depth: 26},
		workload{proto: "abp", fifo: true, inputs: pool(1, ioa.RT), depth: 20},
		workload{proto: "abp-stuck", fifo: true, inputs: pool(2), depth: 18},
		workload{proto: "abp", fifo: true, inputs: pool(2), depth: 12, loss: true},
		workload{proto: "stenning", fifo: false, inputs: pool(2), depth: 12, loss: true},
		// The explorer benchmark's shape at depth 24: Stenning over C̄ with
		// DL6 checked. POR must explore exactly the unreduced states.
		workload{proto: "stenning", fifo: false, inputs: pool(3), depth: 24, inTransit: 3, states: 52288, long: true},
	)

	for _, w := range loads {
		w := w
		t.Run(fmt.Sprintf("%s/fifo=%t/loss=%t/d%d", w.proto, w.fifo, w.loss, w.depth), func(t *testing.T) {
			if w.long && testing.Short() {
				t.Skip("explores the full depth-24 Stenning space")
			}
			t.Parallel()
			p, err := protocol.ByName(w.proto, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			var sysOpts []core.SystemOption
			if w.loss {
				sysOpts = append(sysOpts, core.WithChannelOptions(channel.WithLoss()))
			}
			inTransit := w.inTransit
			if inTransit == 0 {
				inTransit = 2
			}
			results := make(map[string]*Result, len(variants))
			for _, v := range variants {
				sys, err := core.NewSystem(p, w.fifo, sysOpts...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := BFS(sys, Config{
					Inputs:       w.inputs,
					Monitor:      NewSafetyMonitor(true),
					MaxDepth:     w.depth,
					MaxInTransit: inTransit,
					AllowLoss:    w.loss,
					Symmetry:     v.sym,
					unreduced:    !v.por,
				})
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				results[v.name] = res
				if res.Violation != nil {
					if got := replayViolation(t, sys, NewSafetyMonitor(true), res.Trace); got == nil || got.Property != res.Violation.Property {
						t.Errorf("%s: trace does not replay to %s (replay: %v)", v.name, res.Violation, got)
					}
				}
			}
			base := results["base"]
			for _, v := range variants[1:] {
				r := results[v.name]
				if (r.Violation == nil) != (base.Violation == nil) {
					t.Fatalf("%s verdict differs: %v vs base %v", v.name, r.Violation, base.Violation)
				}
				if r.Violation != nil && r.Violation.Property != base.Violation.Property {
					t.Errorf("%s property differs: %s vs base %s", v.name, r.Violation.Property, base.Violation.Property)
				}
				if r.Violation != nil && len(r.Trace) != len(base.Trace) {
					t.Errorf("%s shortest trace length differs: %d vs base %d", v.name, len(r.Trace), len(base.Trace))
				}
				if r.Exhausted != base.Exhausted || r.DepthLimited != base.DepthLimited {
					t.Errorf("%s status differs: exhausted=%t depthLimited=%t vs base %t/%t",
						v.name, r.Exhausted, r.DepthLimited, base.Exhausted, base.DepthLimited)
				}
			}
			if w.states != 0 && base.StatesExplored != w.states {
				t.Errorf("unreduced search explored %d states, want %d", base.StatesExplored, w.states)
			}
			if got, want := results["por"].StatesExplored, base.StatesExplored; got != want {
				t.Errorf("POR must not change the state count: got %d, base %d", got, want)
			}
			if got := results["sym"].StatesExplored; got > base.StatesExplored {
				t.Errorf("symmetry explored more states than base: %d > %d", got, base.StatesExplored)
			}
			if got, want := results["both"].StatesExplored, results["sym"].StatesExplored; got != want {
				t.Errorf("sym+por state count differs from sym alone: %d vs %d", got, want)
			}
		})
	}
}

// TestSymmetryReducesStenning pins the tentpole's point: the e11-class
// workload (stenning over reordering channels) must collapse strictly
// under symmetry reduction.
func TestSymmetryReducesStenning(t *testing.T) {
	run := func(sym bool) *Result {
		sys, err := core.NewSystem(protocol.NewStenning(), false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := BFS(sys, Config{
			Inputs:       pool(3),
			Monitor:      NewSafetyMonitor(true),
			MaxDepth:     16,
			MaxInTransit: 3,
			Symmetry:     sym,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("unexpected violation: %s", res.Violation)
		}
		return res
	}
	base, sym := run(false), run(true)
	if sym.StatesExplored >= base.StatesExplored {
		t.Fatalf("symmetry did not reduce: %d >= %d", sym.StatesExplored, base.StatesExplored)
	}
	t.Logf("states %d -> %d (%.2fx)", base.StatesExplored, sym.StatesExplored,
		float64(base.StatesExplored)/float64(sym.StatesExplored))
}

// TestSymmetryEquivariance: renaming the pool's payload tokens must not
// change a symmetry-reduced search at all — the canonical state space is
// the quotient by exactly that renaming.
func TestSymmetryEquivariance(t *testing.T) {
	run := func(msgs []string) *Result {
		sys, err := core.NewSystem(protocol.NewStenning(), false)
		if err != nil {
			t.Fatal(err)
		}
		inputs := []ioa.Action{ioa.Wake(ioa.TR), ioa.Wake(ioa.RT)}
		for _, m := range msgs {
			inputs = append(inputs, ioa.SendMsg(ioa.TR, ioa.Message(m)))
		}
		res, err := BFS(sys, Config{
			Inputs:       inputs,
			Monitor:      NewSafetyMonitor(true),
			MaxDepth:     14,
			MaxInTransit: 2,
			Symmetry:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run([]string{"a", "b", "c"})
	b := run([]string{"zeta", "alpha", "omega"})
	if a.StatesExplored != b.StatesExplored {
		t.Fatalf("canonical state space depends on token spelling: %d vs %d", a.StatesExplored, b.StatesExplored)
	}
}

// TestSymmetryGuards: the symmetry flag must be inert (fall back to the
// unreduced search, not misbehave) for non-payload-opaque protocols and
// for pools with duplicate send_msg tokens.
func TestSymmetryGuards(t *testing.T) {
	t.Run("frag-not-opaque", func(t *testing.T) {
		run := func(sym bool) *Result {
			p, err := protocol.ByName("frag", 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := core.NewSystem(p, true)
			if err != nil {
				t.Fatal(err)
			}
			res, err := BFS(sys, Config{
				Inputs:       pool(2),
				Monitor:      NewSafetyMonitor(true),
				MaxDepth:     14,
				MaxInTransit: 2,
				Symmetry:     sym,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if base, sym := run(false), run(true); base.StatesExplored != sym.StatesExplored {
			t.Fatalf("symmetry must be inert for frag: %d vs %d", sym.StatesExplored, base.StatesExplored)
		}
	})
	t.Run("duplicate-pool-tokens", func(t *testing.T) {
		inputs := []ioa.Action{
			ioa.Wake(ioa.TR), ioa.Wake(ioa.RT),
			ioa.SendMsg(ioa.TR, "a"), ioa.SendMsg(ioa.TR, "b"), ioa.SendMsg(ioa.TR, "a"),
		}
		if symPoolOK(inputs) {
			t.Fatal("symPoolOK accepted duplicate send_msg tokens")
		}
		run := func(sym bool) *Result {
			sys, err := core.NewSystem(protocol.NewStenning(), true)
			if err != nil {
				t.Fatal(err)
			}
			res, err := BFS(sys, Config{
				Inputs:       inputs,
				Monitor:      NewSafetyMonitor(true),
				MaxDepth:     12,
				MaxInTransit: 2,
				Symmetry:     sym,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if base, sym := run(false), run(true); base.StatesExplored != sym.StatesExplored {
			t.Fatalf("symmetry must be inert for duplicate tokens: %d vs %d", sym.StatesExplored, base.StatesExplored)
		}
	})
}

// TestCanonFingerprintPermutationInvariant quick-checks the core
// symmetry property at the fingerprint level: applying a random
// bijective renaming of packet IDs and payload tokens to a channel
// history and a monitor history leaves the canonical fingerprints
// byte-identical.
func TestCanonFingerprintPermutationInvariant(t *testing.T) {
	const rounds = 40
	for seed := int64(0); seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		// Random bijections: IDs are permuted within a superset, payload
		// tokens renamed injectively.
		idPerm := rng.Perm(2 * n)
		renameID := func(id uint64) uint64 { return uint64(idPerm[id-1] + 1) }
		renameMsg := func(m ioa.Message) ioa.Message {
			if m == "" {
				return ""
			}
			return ioa.Message(fmt.Sprintf("tok-%s-%d", string(m), seed))
		}

		build := func(rename bool) ([]byte, []byte) {
			ch := channel.NewPermissive(ioa.TR)
			st := ch.Start()
			mon := NewSafetyMonitor(true)
			canon := ioa.NewCanon()
			for i := 1; i <= n; i++ {
				id := uint64(i)
				m := ioa.Message(fmt.Sprintf("m%d", i))
				if rename {
					id, m = renameID(id), renameMsg(m)
				}
				var err error
				st, err = ch.Step(st, ioa.SendPkt(ioa.TR, ioa.Packet{ID: id, Header: "data/0", Payload: m}))
				if err != nil {
					t.Fatal(err)
				}
				next, v := mon.Step(ioa.SendMsg(ioa.TR, m))
				if v != nil {
					t.Fatalf("unexpected violation: %v", v)
				}
				mon = next.(SafetyMonitor)
			}
			canon.Reset()
			chFP := st.(ioa.CanonFingerprinter).AppendCanonFingerprint(nil, canon)
			monFP := mon.AppendCanonFingerprint(nil, canon)
			return chFP, monFP
		}
		chA, monA := build(false)
		chB, monB := build(true)
		if string(chA) != string(chB) {
			t.Fatalf("seed %d: channel canonical fingerprint not invariant:\n%s\n%s", seed, chA, chB)
		}
		if string(monA) != string(monB) {
			t.Fatalf("seed %d: monitor canonical fingerprint not invariant:\n%s\n%s", seed, monA, monB)
		}
	}
}

// TestResumeRejectsReductionMismatch: a checkpoint written by a search
// without symmetry reduction must not resume under symmetry, nor in the
// unreduced reference expansion — the seen-set keys and expansion order
// are incompatible.
func TestResumeRejectsReductionMismatch(t *testing.T) {
	sys, err := core.NewSystem(protocol.NewStenning(), false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	cfg := Config{
		Inputs:       pool(2),
		Monitor:      NewSafetyMonitor(true),
		MaxDepth:     10,
		MaxInTransit: 2,
		Checkpoint:   CheckpointOptions{Path: path, EveryLevels: 2},
	}
	if _, err := BFS(sys, cfg); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mis := range []struct {
		name     string
		sym, por bool
	}{{"symmetry", true, true}, {"unreduced", false, false}, {"symmetry+unreduced", true, false}} {
		bad := cfg
		bad.Checkpoint = CheckpointOptions{}
		bad.Resume = ck
		bad.Symmetry, bad.unreduced = mis.sym, !mis.por
		sys2, err := core.NewSystem(protocol.NewStenning(), false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BFS(sys2, bad); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("resume as %s: err = %v, want ErrCheckpointMismatch", mis.name, err)
		}
	}
}
