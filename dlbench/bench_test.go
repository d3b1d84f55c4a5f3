package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
)

// BenchmarkWorkload runs one checked operation of a workload per
// iteration: the harness under an outside CPU profile, for checking the
// traced run's layer ranking against pprof, e.g.
//
//	go test -run '^$' -bench 'Workload/serve$' -benchtime 3x -cpuprofile cpu.out
//	go tool pprof -top cpu.out
func BenchmarkWorkload(b *testing.B) {
	for _, name := range workloads {
		b.Run(name, func(b *testing.B) {
			w, err := setup(name, 1, b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			r := &report{workload: name, metrics: map[string]metric{}}
			b.ResetTimer()
			for range b.N {
				w.once(r)
			}
			b.StopTimer()
			if len(r.errs) > 0 {
				b.Fatal(strings.Join(r.errs, "; "))
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric and workload names and
// units the harness prints to the ones BENCHMARK.json declares, and
// checks the interaction map covers every per-layer metric.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: harness %s %s, BENCHMARK.json %s %s", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, harness %s", i, w.Name, workloads[i])
		}
	}

	var inter struct {
		PerLayer map[string]struct {
			Moves  []string
			Bypass []string
			Note   string
		} `json:"per_layer"`
	}
	data, err = os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &inter); err != nil {
		t.Fatal(err)
	}
	if len(inter.PerLayer) != len(perLayer) {
		t.Errorf("interactions.json maps %d per-layer metrics, harness has %d", len(inter.PerLayer), len(perLayer))
	}
	isWorkload := func(w string) bool { return slices.Contains(workloads, w) }
	isEndToEnd := func(m string) bool {
		return slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.name == m })
	}
	for _, d := range perLayer {
		e, ok := inter.PerLayer[d.name]
		if !ok || len(e.Bypass) == 0 || (len(e.Moves) == 0 && e.Note == "") {
			t.Errorf("interactions.json: %s needs a target (or a note why none) and a bypass workload", d.name)
			continue
		}
		for _, m := range e.Moves {
			metric, w, _ := strings.Cut(m, "@")
			if !isEndToEnd(metric) || !isWorkload(w) || slices.Contains(e.Bypass, w) {
				t.Errorf("interactions.json: %s moves %q: want an end-to-end metric@workload outside the bypass", d.name, m)
			}
		}
		for _, w := range e.Bypass {
			if !isWorkload(w) {
				t.Errorf("interactions.json: %s bypass %q is not a workload", d.name, w)
			}
		}
	}
}

// TestInstrumentingLeavesSearchUnchanged checks, on a small search at
// Workers=1, that the timed automata and monitor leave the result and the
// final checkpoint as without them (up to the seen-set hash seed, which
// the explorer draws afresh for every search).
func TestInstrumentingLeavesSearchUnchanged(t *testing.T) {
	b, err := setupExplore(7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.cfg.MaxDepth = 14
	r := &report{metrics: map[string]metric{}}
	search := func(sys *core.System, mod func(*explore.Config)) (*explore.Result, [32]byte) {
		t.Helper()
		cfg := b.cfg
		cfg.Monitor = explore.NewSafetyMonitor(true)
		cfg.Checkpoint = explore.CheckpointOptions{Path: b.ckpt, EveryLevels: 1}
		if mod != nil {
			mod(&cfg)
		}
		res, err := explore.BFS(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, b.checkpointShape(r)
	}
	plain, plainCkpt := search(b.sys, nil)
	in, err := b.instrument()
	if err != nil {
		t.Fatal(err)
	}
	wrapped, wrappedCkpt := search(in.sys, in.wrapMonitor)
	if !sameSearch(plain, wrapped) {
		t.Errorf("instrumented search: %+v; plain: %+v", wrapped, plain)
	}
	if len(r.errs) > 0 || plainCkpt != wrappedCkpt {
		t.Errorf("instrumented search wrote a different checkpoint (errors: %v)", r.errs)
	}
	if in.prot.step.calls.Load() == 0 || in.safety.calls.Load() == 0 {
		t.Error("instrumented search timed no protocol or monitor steps")
	}
}
