package explore

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestModesEquivalence: worker count is a pure performance knob under
// every reduction mode. For both the violating and the clean exhaustive
// workload, and every combination of symmetry and POR (por=false is the
// unreduced reference expansion), a search at each
// worker count must reproduce the Workers=1 reference Result exactly:
// same verdict, same trace, same StatesExplored and DepthReached. The w1
// cases re-run the reference configuration under a fresh random hash
// seed, so they pin run-to-run determinism.
func TestModesEquivalence(t *testing.T) {
	workloads := []struct {
		name  string
		setup func(t *testing.T) (*core.System, Config)
	}{
		{"violating", crashSearch},
		{"verifying", verifySearch},
	}
	for _, wl := range workloads {
		for _, sym := range []bool{false, true} {
			for _, por := range []bool{false, true} {
				sys, base := wl.setup(t)
				base.Symmetry = sym
				base.unreduced = !por
				base.Workers = 1
				want, err := BFS(sys, base)
				if err != nil {
					t.Fatalf("%s sym=%t por=%t reference: %v", wl.name, sym, por, err)
				}
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/w%d/sym=%t/por=%t", wl.name, workers, sym, por)
					t.Run(label, func(t *testing.T) {
						cfg := base
						cfg.Workers = workers
						res, err := BFS(sys, cfg)
						if err != nil {
							t.Fatal(err)
						}
						requireEqualResults(t, label, res, want)
					})
				}
			}
		}
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
