package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// E11 measures the model checker itself: throughput (states/sec) of the
// parallel level-synchronous BFS across worker counts, plus the dedup
// memory footprint of the hashed seen-set against exact full-key dedup.
// The workload is an exhaustive verification (Stenning over the
// reordering channel C̄), so every run covers the same state space and
// the per-worker-count StatesExplored figures double as a live soundness
// check — the JSON encodes a claim that parallelism changed nothing but
// the wall clock.

// e11Run is one worker-count measurement (hashed dedup).
type e11Run struct {
	Workers      int     `json:"workers"`
	States       int     `json:"states"`
	DurationMS   float64 `json:"duration_ms"`
	StatesPerSec float64 `json:"states_per_sec"`
	SpeedupVsW1  float64 `json:"speedup_vs_w1"`
}

// e11Result is one machine-readable benchmark entry; BENCH_explore.json
// is an append-style array of these, so before/after comparisons (e.g.
// instrumentation overhead checks) live in one labelled history.
type e11Result struct {
	Experiment          string   `json:"experiment"`
	Label               string   `json:"label,omitempty"`
	Protocol            string   `json:"protocol"`
	Channels            string   `json:"channels"`
	PoolInputs          int      `json:"pool_inputs"`
	MaxDepth            int      `json:"max_depth"`
	Cores               int      `json:"cores"`
	GOMAXPROCS          int      `json:"gomaxprocs"`
	States              int      `json:"states"`
	Exhausted           bool     `json:"exhausted"`
	Runs                []e11Run `json:"runs"`
	HashedSeenBytes     int64    `json:"hashed_seen_bytes"`
	ExactSeenBytes      int64    `json:"exact_seen_bytes"`
	HashedBytesPerState float64  `json:"hashed_bytes_per_state"`
	ExactBytesPerState  float64  `json:"exact_bytes_per_state"`
	DedupBytesRatio     float64  `json:"dedup_bytes_ratio"`
	// Metrics snapshot figures from one extra instrumented run (the timed
	// runs above always execute with metrics disabled, so they measure
	// the uninstrumented hot path).
	PeakFrontier int64   `json:"peak_frontier"`
	DedupHits    int64   `json:"dedup_hits"`
	DedupMisses  int64   `json:"dedup_misses"`
	DedupHitRate float64 `json:"dedup_hit_rate"`
	// Checkpoint overhead: one extra timed run (metrics disabled) that
	// writes a durable checkpoint at every level barrier, compared
	// against the same-worker uncheckpointed run above. Write count and
	// last-snapshot size come from the instrumented run.
	CheckpointWrites      int64   `json:"checkpoint_writes"`
	CheckpointLastBytes   int64   `json:"checkpoint_last_bytes"`
	CheckpointDurationMS  float64 `json:"checkpoint_duration_ms"`
	CheckpointOverheadPct float64 `json:"checkpoint_overhead_pct"`
	// Reduction A/B: the same workload under symmetry reduction, POR, and
	// both (timed, metrics disabled, workers as in Runs[0]). Symmetry
	// shrinks the state space (reduction_ratio = states /
	// reduced_states); POR prunes transitions, never states, so
	// por_states must equal states — the entry records the live proof.
	SymmetryStates       int     `json:"symmetry_states"`
	SymmetryStatesPerSec float64 `json:"symmetry_states_per_sec"`
	SymmetryRenames      int64   `json:"symmetry_renames"`
	PORStates            int     `json:"por_states"`
	PORStatesPerSec      float64 `json:"por_states_per_sec"`
	PORPruned            int64   `json:"por_pruned_transitions"`
	ReducedStates        int     `json:"reduced_states"`
	ReducedStatesPerSec  float64 `json:"reduced_states_per_sec"`
	ReductionRatio       float64 `json:"reduction_ratio"`
	// PeakRSSBytes is the process high-water mark (ru_maxrss) after all
	// runs.
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

func runE11(workersCSV, jsonPath, label string) error {
	workers, err := parseInts(workersCSV)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(protocol.NewStenning(), false)
	if err != nil {
		return err
	}
	inputs := []ioa.Action{
		ioa.Wake(ioa.TR), ioa.Wake(ioa.RT),
		ioa.SendMsg(ioa.TR, "m1"), ioa.SendMsg(ioa.TR, "m2"), ioa.SendMsg(ioa.TR, "m3"),
	}
	cfg := explore.Config{
		Inputs:       inputs,
		MaxDepth:     24,
		MaxInTransit: 3,
	}
	out := e11Result{
		Experiment: "e11",
		Label:      label,
		Protocol:   "stenning",
		Channels:   "C̄(reordering)",
		PoolInputs: len(inputs),
		MaxDepth:   cfg.MaxDepth,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	fmt.Printf("E11: parallel BFS throughput, stenning/C̄, pool=%d, depth≤%d, cores=%d\n",
		len(inputs), cfg.MaxDepth, out.Cores)

	// Timed runs keep Metrics nil: the benchmark measures the
	// uninstrumented hot path, the zero-cost-when-disabled contract's
	// figure of record. Snapshot figures come from one extra untimed run.
	measure := func(w int, exact bool, reg *obs.Registry, ck explore.CheckpointOptions, sym, por bool) (*explore.Result, time.Duration, error) {
		c := cfg
		c.Monitor = explore.NewSafetyMonitor(true)
		c.Workers = w
		c.ExactDedup = exact
		c.Metrics = reg
		c.Checkpoint = ck
		c.Symmetry = sym
		c.POR = por
		began := time.Now()
		res, err := explore.BFS(sys, c)
		return res, time.Since(began), err
	}

	var base float64
	for _, w := range workers {
		res, elapsed, err := measure(w, false, nil, explore.CheckpointOptions{}, false, false)
		if err != nil {
			return err
		}
		if res.Violation != nil {
			return fmt.Errorf("e11: unexpected violation: %s", res.Violation)
		}
		if out.States == 0 {
			out.States = res.StatesExplored
			out.Exhausted = res.Exhausted
			out.HashedSeenBytes = res.SeenSetBytes
		} else if res.StatesExplored != out.States {
			return fmt.Errorf("e11: workers=%d explored %d states, want %d (parallel dedup unsound?)",
				w, res.StatesExplored, out.States)
		}
		rate := float64(res.StatesExplored) / elapsed.Seconds()
		if base == 0 {
			base = rate
		}
		run := e11Run{
			Workers:      w,
			States:       res.StatesExplored,
			DurationMS:   float64(elapsed.Microseconds()) / 1000,
			StatesPerSec: rate,
			SpeedupVsW1:  rate / base,
		}
		out.Runs = append(out.Runs, run)
		fmt.Printf("  workers=%-3d %9d states  %8.0f states/sec  speedup %.2fx\n",
			w, run.States, run.StatesPerSec, run.SpeedupVsW1)
	}

	exactRes, _, err := measure(1, true, nil, explore.CheckpointOptions{}, false, false)
	if err != nil {
		return err
	}
	out.ExactSeenBytes = exactRes.SeenSetBytes
	if out.States > 0 {
		out.HashedBytesPerState = float64(out.HashedSeenBytes) / float64(out.States)
		out.ExactBytesPerState = float64(out.ExactSeenBytes) / float64(out.States)
	}
	if out.HashedSeenBytes > 0 {
		out.DedupBytesRatio = float64(out.ExactSeenBytes) / float64(out.HashedSeenBytes)
	}
	fmt.Printf("  seen-set: hashed %.1f B/state, exact %.1f B/state (%.1fx smaller)\n",
		out.HashedBytesPerState, out.ExactBytesPerState, out.DedupBytesRatio)

	// Checkpoint overhead: the same workload with a durable snapshot at
	// every level barrier (the worst-case -checkpoint-every cadence),
	// metrics still disabled so the delta against the workers[0] run
	// above isolates the write cost.
	ckDir, err := os.MkdirTemp("", "perfsweep-e11-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckDir)
	ck := explore.CheckpointOptions{Path: filepath.Join(ckDir, "e11.ckpt"), EveryLevels: 1}
	ckRes, ckElapsed, err := measure(workers[0], false, nil, ck, false, false)
	if err != nil {
		return err
	}
	if ckRes.StatesExplored != out.States {
		return fmt.Errorf("e11: checkpointed run explored %d states, want %d (checkpointing perturbed the search?)",
			ckRes.StatesExplored, out.States)
	}
	out.CheckpointDurationMS = float64(ckElapsed.Microseconds()) / 1000
	if len(out.Runs) > 0 && out.Runs[0].DurationMS > 0 {
		out.CheckpointOverheadPct = (out.CheckpointDurationMS - out.Runs[0].DurationMS) / out.Runs[0].DurationMS * 100
	}

	// One extra instrumented run (never timed) harvests the metrics
	// snapshot figures: peak frontier width, dedup hit rate, and the
	// checkpoint write count and last-snapshot size.
	reg := obs.NewRegistry()
	if _, _, err := measure(workers[0], false, reg, ck, false, false); err != nil {
		return err
	}
	snap := reg.Snapshot()
	out.PeakFrontier = snap.Gauge("explore.frontier_peak")
	out.DedupHits = snap.Counter("explore.dedup_hits")
	out.DedupMisses = snap.Counter("explore.dedup_misses")
	if total := out.DedupHits + out.DedupMisses; total > 0 {
		out.DedupHitRate = float64(out.DedupHits) / float64(total)
	}
	out.CheckpointWrites = snap.Counter("explore.checkpoints")
	out.CheckpointLastBytes = snap.Gauge("explore.checkpoint_bytes")
	fmt.Printf("  instrumented run: peak frontier %d, dedup hit rate %.3f (%d hits / %d misses)\n",
		out.PeakFrontier, out.DedupHitRate, out.DedupHits, out.DedupMisses)
	fmt.Printf("  checkpointing: %d writes (last %d B), run %.1f ms vs %.1f ms uncheckpointed (%+.1f%%)\n",
		out.CheckpointWrites, out.CheckpointLastBytes,
		out.CheckpointDurationMS, out.Runs[0].DurationMS, out.CheckpointOverheadPct)

	// Reduction A/B: the same workload with symmetry reduction only, POR
	// only, and both together (timed, metrics disabled, workers[0]).
	// Symmetry is the state-space reducer; POR prunes redundant
	// transitions but — by the consecutive-block-rewriting argument in
	// internal/explore/reduction.go — never changes which states are
	// reachable, so the POR-only state count equaling the baseline is
	// asserted here as a live soundness check, not just documented.
	symRes, symElapsed, err := measure(workers[0], false, nil, explore.CheckpointOptions{}, true, false)
	if err != nil {
		return err
	}
	if symRes.Violation != nil {
		return fmt.Errorf("e11: symmetry run found a violation the baseline did not: %s", symRes.Violation)
	}
	porRes, porElapsed, err := measure(workers[0], false, nil, explore.CheckpointOptions{}, false, true)
	if err != nil {
		return err
	}
	if porRes.Violation != nil {
		return fmt.Errorf("e11: POR run found a violation the baseline did not: %s", porRes.Violation)
	}
	if porRes.StatesExplored != out.States {
		return fmt.Errorf("e11: POR explored %d states, want %d (POR must prune transitions, never states)",
			porRes.StatesExplored, out.States)
	}
	bothRes, bothElapsed, err := measure(workers[0], false, nil, explore.CheckpointOptions{}, true, true)
	if err != nil {
		return err
	}
	if bothRes.Violation != nil {
		return fmt.Errorf("e11: reduced run found a violation the baseline did not: %s", bothRes.Violation)
	}
	if bothRes.StatesExplored >= out.States {
		return fmt.Errorf("e11: reductions explored %d states, want strictly fewer than %d",
			bothRes.StatesExplored, out.States)
	}
	out.SymmetryStates = symRes.StatesExplored
	out.SymmetryStatesPerSec = float64(symRes.StatesExplored) / symElapsed.Seconds()
	out.PORStates = porRes.StatesExplored
	out.PORStatesPerSec = float64(porRes.StatesExplored) / porElapsed.Seconds()
	out.ReducedStates = bothRes.StatesExplored
	out.ReducedStatesPerSec = float64(bothRes.StatesExplored) / bothElapsed.Seconds()
	out.ReductionRatio = float64(out.States) / float64(out.ReducedStates)

	// One instrumented reduced run harvests the reduction counters.
	redReg := obs.NewRegistry()
	if _, _, err := measure(workers[0], false, redReg, explore.CheckpointOptions{}, true, true); err != nil {
		return err
	}
	redSnap := redReg.Snapshot()
	out.SymmetryRenames = redSnap.Counter("explore.symmetry_renames")
	out.PORPruned = redSnap.Counter("explore.por_pruned")
	fmt.Printf("  symmetry:  %9d states  %8.0f states/sec  (%d canonical renames)\n",
		out.SymmetryStates, out.SymmetryStatesPerSec, out.SymmetryRenames)
	fmt.Printf("  por:       %9d states  %8.0f states/sec  (%d transitions pruned, states unchanged)\n",
		out.PORStates, out.PORStatesPerSec, out.PORPruned)
	fmt.Printf("  sym+por:   %9d states  %8.0f states/sec  reduction %.2fx\n",
		out.ReducedStates, out.ReducedStatesPerSec, out.ReductionRatio)

	out.PeakRSSBytes = peakRSSBytes()
	fmt.Printf("  peak RSS:  %d bytes (process high-water mark across all runs)\n", out.PeakRSSBytes)

	if jsonPath != "" {
		if err := appendBenchEntry(jsonPath, out); err != nil {
			return err
		}
		fmt.Printf("appended entry to %s\n", jsonPath)
	}
	return nil
}

// peakRSSBytes reports the process's resident-set high-water mark
// (ru_maxrss, kilobytes on Linux), 0 if unavailable.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}

// appendBenchEntry appends one entry to the benchmark file, which is a
// JSON array of labelled e11Result entries. A legacy single-object file
// (the pre-array format) is wrapped into a one-entry array first, so
// history is never lost.
func appendBenchEntry(path string, entry e11Result) error {
	var entries []json.RawMessage
	blob, err := os.ReadFile(path)
	switch {
	case err == nil && len(bytes.TrimSpace(blob)) > 0:
		trimmed := bytes.TrimSpace(blob)
		if trimmed[0] == '[' {
			if err := json.Unmarshal(trimmed, &entries); err != nil {
				return fmt.Errorf("e11: %s is not a valid benchmark array: %w", path, err)
			}
		} else {
			var legacy e11Result
			if err := json.Unmarshal(trimmed, &legacy); err != nil {
				return fmt.Errorf("e11: %s is not a valid benchmark entry: %w", path, err)
			}
			entries = append(entries, json.RawMessage(trimmed))
		}
	case err != nil && !os.IsNotExist(err):
		return err
	}
	raw, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	entries = append(entries, raw)
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
