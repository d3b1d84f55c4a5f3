package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ioa"
	"repro/internal/protocol"
)

// searchCase is one (system, config) pair used by the equivalence tests:
// two exhaustive verifications and the two impossibility-phenomenon
// violation searches, so both the "covered everything" and the
// "short-circuited on a violation" paths are exercised.
type searchCase struct {
	name      string
	fifo      bool
	proto     func() core.Protocol
	cfg       Config
	violating bool
}

func searchCases() []searchCase {
	return []searchCase{
		{
			name:  "verify-gbn-fifo",
			fifo:  true,
			proto: func() core.Protocol { return protocol.NewGoBackN(2, 1) },
			cfg: Config{
				Inputs: pool(2), Monitor: NewSafetyMonitor(true),
				MaxDepth: 22, MaxInTransit: 2,
			},
		},
		{
			name:  "verify-nv-crashes",
			fifo:  true,
			proto: protocol.NewNonVolatile,
			cfg: Config{
				Inputs: pool(1, ioa.TR, ioa.RT), Monitor: NewSafetyMonitor(true),
				MaxDepth: 20, MaxInTransit: 2,
			},
		},
		{
			name:  "find-reordering-bug",
			fifo:  false,
			proto: func() core.Protocol { return protocol.NewGoBackN(2, 1) },
			cfg: Config{
				Inputs: pool(3), Monitor: NewSafetyMonitor(false),
				MaxDepth: 26, MaxInTransit: 3,
			},
			violating: true,
		},
		{
			name:  "find-crash-bug",
			fifo:  true,
			proto: protocol.NewABP,
			cfg: Config{
				Inputs: pool(1, ioa.RT), Monitor: NewSafetyMonitor(false),
				MaxDepth: 20, MaxInTransit: 2,
			},
			violating: true,
		},
	}
}

func runCase(t *testing.T, c searchCase, mutate func(*Config)) *Result {
	t.Helper()
	sys, err := core.NewSystem(c.proto(), c.fifo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.cfg
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := BFS(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.violating != (res.Violation != nil) {
		t.Fatalf("%s: violation = %v, want violating=%t", c.name, res.Violation, c.violating)
	}
	return res
}

// TestParallelMatchesSequential: Workers is a pure performance knob.
// Expansion runs in parallel but successors are committed in frontier
// order, so every worker count must reproduce the sequential Result
// exactly — verdict, the very same trace, StatesExplored and
// DepthReached — on the violating searches as well as the exhaustive
// ones. Run with -race this doubles as the explorer's data-race test.
func TestParallelMatchesSequential(t *testing.T) {
	for _, c := range searchCases() {
		t.Run(c.name, func(t *testing.T) {
			base := runCase(t, c, func(cfg *Config) { cfg.Workers = 1 })
			for _, w := range []int{2, 4, 8} {
				res := runCase(t, c, func(cfg *Config) { cfg.Workers = w })
				requireEqualResults(t, fmt.Sprintf("workers=%d", w), res, base)
			}
		})
	}
}

// TestWorkersCheckpointBytesIdentical: the frontier order and each
// state's representative do not depend on goroutine timing, so a
// checkpoint written by a parallel run must be byte-identical to the
// sequential run's. The cut is taken deep enough for levels to span
// several chunks; the hash seed is forced equal by resuming every run
// from one level-1 checkpoint.
func TestWorkersCheckpointBytesIdentical(t *testing.T) {
	sys, seedCfg := verifySearch(t)
	dir := t.TempDir()
	seedPath := filepath.Join(dir, "seed.ckpt")
	stopAtLevel(&seedCfg, 1, seedPath)
	if _, err := BFS(sys, seedCfg); err != nil {
		t.Fatal(err)
	}
	seedCk, err := ReadCheckpoint(seedPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		_, cfg := verifySearch(t)
		cfg.Workers = workers
		cfg.Resume = seedCk
		path := filepath.Join(dir, fmt.Sprintf("w%d.ckpt", workers))
		stopAtLevel(&cfg, 10, path)
		if _, err := BFS(sys, cfg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = blob
			continue
		}
		if string(blob) != string(want) {
			t.Errorf("workers=%d: checkpoint differs from the sequential one (%d vs %d bytes)", workers, len(blob), len(want))
		}
	}
}

// TestHashedDedupMatchesExact is the soundness guard for the 64-bit
// hashed seen-set: on every standard case the hashed and the exact
// (full-key) sets explore identical state counts and depths and reach the
// same verdict. A hash collision would surface here as a StatesExplored
// mismatch. It also pins down the point of the hashed set: bytes per
// state must be several times lower than with exact keys.
func TestHashedDedupMatchesExact(t *testing.T) {
	for _, c := range searchCases() {
		t.Run(c.name, func(t *testing.T) {
			exact := runCase(t, c, exactDedup)
			hashed := runCase(t, c, nil)
			if hashed.StatesExplored != exact.StatesExplored ||
				hashed.DepthReached != exact.DepthReached ||
				hashed.Exhausted != exact.Exhausted {
				t.Errorf("hashed (states=%d depth=%d exhausted=%t) != exact (%d, %d, %t)",
					hashed.StatesExplored, hashed.DepthReached, hashed.Exhausted,
					exact.StatesExplored, exact.DepthReached, exact.Exhausted)
			}
			if c.violating {
				if hashed.Violation.Property != exact.Violation.Property {
					t.Errorf("hashed violation %s != exact %s", hashed.Violation, exact.Violation)
				}
				if len(hashed.Trace) != len(exact.Trace) {
					t.Errorf("hashed trace length %d != exact %d", len(hashed.Trace), len(exact.Trace))
				}
			}
			if hashed.SeenSetBytes <= 0 || exact.SeenSetBytes <= 0 {
				t.Fatalf("seen-set accounting missing: hashed=%d exact=%d", hashed.SeenSetBytes, exact.SeenSetBytes)
			}
			ratio := float64(exact.SeenSetBytes) / float64(hashed.SeenSetBytes)
			t.Logf("states=%d seen-set bytes: exact=%d hashed=%d (%.1fx)",
				hashed.StatesExplored, exact.SeenSetBytes, hashed.SeenSetBytes, ratio)
			if ratio < 3 {
				t.Errorf("hashed seen-set only %.1fx smaller than exact, want ≥ 3x", ratio)
			}
		})
	}
}

// TestSeenSetConcurrent hammers both seen-set implementations from many
// goroutines with overlapping key streams: every key must be admitted
// exactly once in total, and Len must agree. Meaningful under -race.
func TestSeenSetConcurrent(t *testing.T) {
	const (
		goroutines = 8
		keys       = 4000
	)
	for _, tc := range []struct {
		name string
		set  seenSet
	}{
		{"hashed", newHashedSeen()},
		{"exact", newExactSeen()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			admitted := make([]int64, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := make([]byte, 0, 32)
					// Each goroutine offers every key; only one wins each.
					for i := 0; i < keys; i++ {
						buf = fmt.Appendf(buf[:0], "state-%d-∥-%d", i, i%7)
						if tc.set.Add(buf) {
							admitted[g]++
						}
					}
				}(g)
			}
			wg.Wait()
			var total int64
			for _, n := range admitted {
				total += n
			}
			if total != keys {
				t.Errorf("admitted %d keys total, want %d", total, keys)
			}
			if tc.set.Len() != keys {
				t.Errorf("Len() = %d, want %d", tc.set.Len(), keys)
			}
			if tc.set.ApproxBytes() <= 0 {
				t.Errorf("ApproxBytes() = %d, want > 0", tc.set.ApproxBytes())
			}
		})
	}
}
