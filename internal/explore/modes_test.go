package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// searchMode is one seen-set representation under test. Both run on the
// arena frontier; "arena" is the plain in-memory run and the reference,
// "spill" moves the seen-set to disk. The spill threshold is tiny on
// purpose so even these small searches push sums to disk and through at
// least one run merge.
type searchMode struct {
	name string
	mod  func(t *testing.T, cfg *Config)
}

func allModes(t *testing.T) []searchMode {
	t.Helper()
	return []searchMode{
		{"arena", func(t *testing.T, cfg *Config) {}},
		{"spill", func(t *testing.T, cfg *Config) {
			cfg.SpillDir = t.TempDir()
			cfg.SpillThreshold = 256
		}},
	}
}

// TestModesEquivalence: the disk-spill seen-set is a pure
// representation change — for both the violating and the clean
// exhaustive workload, under every combination of worker count,
// symmetry, and POR, it must reproduce the in-memory run bit-for-bit:
// same verdict, same trace, same StatesExplored and DepthReached.
func TestModesEquivalence(t *testing.T) {
	workloads := []struct {
		name  string
		setup func(t *testing.T) (*core.System, Config)
	}{
		{"violating", crashSearch},
		{"verifying", verifySearch},
	}
	for _, wl := range workloads {
		for _, workers := range []int{1, 4} {
			for _, sym := range []bool{false, true} {
				for _, por := range []bool{false, true} {
					label := fmt.Sprintf("%s/w%d/sym=%t/por=%t", wl.name, workers, sym, por)
					t.Run(label, func(t *testing.T) {
						sys, base := wl.setup(t)
						base.Workers = workers
						base.Symmetry = sym
						base.POR = por

						var want *Result
						for _, mode := range allModes(t) {
							cfg := base
							mode.mod(t, &cfg)
							res, err := BFS(sys, cfg)
							if err != nil {
								t.Fatalf("%s: %v", mode.name, err)
							}
							if want == nil {
								want = res
								continue
							}
							requireEqualResults(t, mode.name, res, want)
							if cfg.SpillDir != "" {
								if res.Spill == nil {
									t.Fatalf("%s: Result.Spill not populated", mode.name)
								}
								// The violating workload halts at the counterexample
								// before the front can fill; only a search that outgrew
								// the threshold must have actually spilled.
								if res.StatesExplored > cfg.SpillThreshold && res.Spill.Spills == 0 {
									t.Errorf("%s: %d states explored but threshold %d never tripped (%+v)",
										mode.name, res.StatesExplored, cfg.SpillThreshold, *res.Spill)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestModesCheckpointBytesIdentical: a checkpoint is a statement about
// the search, not about the data structures that ran it — so the file a
// spilling run writes at level k must be byte-identical to the one the
// in-memory run writes, given the same hash seed. The seed is forced
// equal by resuming both modes from one level-1 checkpoint.
func TestModesCheckpointBytesIdentical(t *testing.T) {
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
	for _, mode := range allModes(t) {
		_, cfg := verifySearch(t)
		mode.mod(t, &cfg)
		cfg.Resume = seedCk
		path := filepath.Join(dir, mode.name+".ckpt")
		stopAtLevel(&cfg, 3, path)
		if _, err := BFS(sys, cfg); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if want == nil {
			want = blob
			continue
		}
		if string(blob) != string(want) {
			t.Errorf("%s: checkpoint differs from the in-memory one (%d vs %d bytes)", mode.name, len(blob), len(want))
		}
	}
}

// TestModesCrossResume: a checkpoint written under one seen-set
// representation must resume under the other — configDigest
// deliberately excludes SpillDir/SpillThreshold — and finish with the
// uninterrupted in-memory result.
func TestModesCrossResume(t *testing.T) {
	sys, baseCfg := crashSearch(t)
	want, err := BFS(sys, baseCfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, writer := range allModes(t) {
		for _, resumer := range allModes(t) {
			if writer.name == resumer.name {
				continue
			}
			t.Run(writer.name+"->"+resumer.name, func(t *testing.T) {
				_, cfg := crashSearch(t)
				writer.mod(t, &cfg)
				path := filepath.Join(t.TempDir(), "cross.ckpt")
				stopAtLevel(&cfg, 2, path)
				if _, err := BFS(sys, cfg); err != nil {
					t.Fatal(err)
				}
				ck, err := ReadCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				_, cfg2 := crashSearch(t)
				resumer.mod(t, &cfg2)
				cfg2.Resume = ck
				res, err := BFS(sys, cfg2)
				if err != nil {
					t.Fatal(err)
				}
				requireEqualResults(t, writer.name+"->"+resumer.name, res, want)
			})
		}
	}
}

// TestSpillConfigRejected pins the one composition that cannot work:
// exact dedup needs the full keys, which the spill format (sorted
// 64-bit sums) cannot hold.
func TestSpillConfigRejected(t *testing.T) {
	sys, cfg := crashSearch(t)
	cfg.ExactDedup = true
	cfg.SpillDir = t.TempDir()
	if _, err := BFS(sys, cfg); err == nil {
		t.Fatal("BFS accepted ExactDedup together with SpillDir")
	}
}

// BenchmarkFrontierPromotion isolates the per-admission cost of the
// frontier layout: materializing one generation of the frontier from
// its parents by appending to reused parallel slabs and bit-packing the
// used bitmap. B/op and allocs/op are the figures of merit — in a full
// search successor-state cloning dominates wall clock, so admission
// cost only shows up isolated here and as retained frontier bytes at
// scale.
func BenchmarkFrontierPromotion(b *testing.B) {
	const parents, succs, inputs = 1024, 4, 4
	actions := pool(2)
	level := newRootLevel(parents, 3, inputs, (inputs+63)/64)
	var batch arenaBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := nextArenaLevel(level)
		for pi := 0; pi < parents; pi++ {
			for sj := 0; sj < succs; sj++ {
				s := succ{action: actions[sj%len(actions)], usedIdx: -1}
				if sj == 0 { // one pool admission per parent, as in a typical level
					s.usedIdx = pi % inputs
				}
				batch.add(level, pi, &s)
			}
		}
		next.absorb(&batch)
	}
	b.ReportMetric(float64(parents*succs), "nodes/gen")
}
