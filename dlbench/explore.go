package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// The explorer workloads are the e11 search shape of BENCH_explore.json:
// Stenning's protocol over the reordering channels C̄ in both
// directions, an input pool of two wakes and three send_msg, at most
// three packets in transit per channel, the DL4/DL5/DL6 SafetyMonitor,
// no violation reachable, searched to exhaustion. The depth bound is
// deeper than e11's 24 so that one search is long enough to time.
const (
	exploreDepth     = 26
	exploreInTransit = 3
	// exploreStates is the exact StatesExplored of that search. Every
	// seed gives the same count: a seed only renames the three messages
	// and permutes the pool, which maps the state space onto itself.
	exploreStates = 78346
)

// exploreBench is the set-up state of an explorer workload.
type exploreBench struct {
	proto core.Protocol
	sys   *core.System
	cfg   explore.Config
	// ckpt is the checkpoint path, written at every level barrier; empty
	// for the explore workload.
	ckpt string
}

// setupExplore builds the system and search configuration for seed. A
// non-empty dir enables a durable checkpoint at every level barrier.
func setupExplore(seed int64, dir string) (*exploreBench, error) {
	p, err := protocol.ByName("stenning", 0, 0)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(p, false)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	inputs := []ioa.Action{ioa.Wake(ioa.TR), ioa.Wake(ioa.RT)}
	seen := map[string]bool{}
	for len(seen) < 3 {
		m := "m" + strconv.FormatInt(rng.Int63n(1<<20), 36)
		if !seen[m] {
			seen[m] = true
			inputs = append(inputs, ioa.SendMsg(ioa.TR, ioa.Message(m)))
		}
	}
	rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	b := &exploreBench{
		proto: p,
		sys:   sys,
		cfg:   explore.Config{Inputs: inputs, MaxDepth: exploreDepth, MaxInTransit: exploreInTransit},
	}
	if dir != "" {
		b.ckpt = filepath.Join(dir, "search.ckpt")
	}
	return b, nil
}

// searchRun is one finished, checked search.
type searchRun struct {
	res     *explore.Result
	elapsed time.Duration
	// levels holds each BFS level's wall time in ms, from OnLevel; tail
	// is the time from the last level to the search's return.
	levels []float64
	tail   float64
}

func (r searchRun) rate() float64 { return float64(r.res.StatesExplored) / r.elapsed.Seconds() }

// search runs one search over sys with the given worker count, after
// mod (if any) adjusts the configuration, and checks its outcome: no
// violation, exhausted, and exactly exploreStates states.
func (b *exploreBench) search(sys *core.System, workers int, mod func(*explore.Config)) (searchRun, error) {
	cfg := b.cfg
	cfg.Monitor = explore.NewSafetyMonitor(true)
	cfg.Workers = workers
	if b.ckpt != "" {
		cfg.Checkpoint = explore.CheckpointOptions{Path: b.ckpt, EveryLevels: 1}
	}
	var run searchRun
	var last time.Duration
	cfg.OnLevel = func(ls explore.LevelStats) {
		run.levels = append(run.levels, float64(ls.Elapsed-last)/1e6)
		last = ls.Elapsed
	}
	if mod != nil {
		mod(&cfg)
	}
	began := time.Now()
	res, err := explore.BFS(sys, cfg)
	run.elapsed = time.Since(began)
	run.tail = float64(run.elapsed-last) / 1e6
	run.res = res
	switch {
	case err != nil:
		return run, fmt.Errorf("search (workers=%d): %w", workers, err)
	case res.Violation != nil:
		return run, fmt.Errorf("search (workers=%d): unexpected violation %s", workers, res.Violation)
	case !res.Exhausted:
		return run, fmt.Errorf("search (workers=%d): not exhausted", workers)
	case res.StatesExplored != exploreStates:
		return run, fmt.Errorf("search (workers=%d): explored %d states, want %d", workers, res.StatesExplored, exploreStates)
	}
	return run, nil
}

// checked runs one search as one attempted operation of r.
func (b *exploreBench) checked(r *report, sys *core.System, workers int, mod func(*explore.Config)) (searchRun, bool) {
	r.attempted++
	run, err := b.search(sys, workers, mod)
	if err != nil {
		r.fail(1, err)
		return run, false
	}
	return run, true
}

func (b *exploreBench) describe() string {
	return fmt.Sprintf("%s over reordering channels, pool %d inputs, depth %d, in-transit %d, workers %d, checkpoint every level %v, %d states per search",
		b.proto.Name, len(b.cfg.Inputs), exploreDepth, exploreInTransit, runtime.NumCPU(), b.ckpt != "", exploreStates)
}

func (b *exploreBench) once(r *report) { b.checked(r, b.sys, runtime.NumCPU(), nil) }

// checkpointShape digests the checkpoint file with the parts that depend
// on the seen-set's hash seed reduced to a count. The explorer draws a
// fresh seed per search, so the seed and the seen hashes differ between
// any two searches; the rest (config digest, counters, frontier
// schedules in order) is a function of the search alone at Workers=1.
// It returns the zero digest for a workload without a checkpoint.
func (b *exploreBench) checkpointShape(r *report) [sha256.Size]byte {
	var sum [sha256.Size]byte
	if b.ckpt == "" {
		return sum
	}
	c, err := explore.ReadCheckpoint(b.ckpt)
	if err != nil {
		r.fail(0, err)
		return sum
	}
	c.HashSeed = 0
	c.SeenHashes = make([]uint64, len(c.SeenHashes))
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(c); err != nil {
		r.fail(0, fmt.Errorf("digest checkpoint: %w", err))
		return sum
	}
	h.Sum(sum[:0])
	return sum
}

// sameSearch reports whether two checked searches agree on everything
// but wall time and the hash-seed-dependent seen-set size.
func sameSearch(a, b *explore.Result) bool {
	return a.StatesExplored == b.StatesExplored && a.DepthReached == b.DepthReached &&
		a.Exhausted == b.Exhausted && a.DepthLimited == b.DepthLimited
}

// measure is the untraced run: one warm-up search, then searches until
// the window closes. Host noise comes in bursts shorter than a search, so
// the run's typical search is built level by level: each level's median
// wall time across the searches, summed. Every search does the same work
// per level, so this is the median search with the bursts shed.
// throughput_per_s is states over that time and latency_p50_us is that
// time (an explorer user waits for the verdict); latency_p99_us is the
// nearest-rank p99 of the whole searches (with a dozen, the slowest).
func (b *exploreBench) measure(window time.Duration, r *report) {
	b.once(r)
	var runs []searchRun
	var rates, times []float64
	deadline := time.Now().Add(window)
	for len(runs) < minReps || time.Now().Before(deadline) {
		run, ok := b.checked(r, b.sys, runtime.NumCPU(), nil)
		if ok {
			runs = append(runs, run)
			rates = append(rates, run.rate())
			times = append(times, float64(run.elapsed)/1e3)
		}
		if !ok && time.Now().After(deadline) {
			break
		}
	}
	typical := typicalSearchMS(runs)
	var rate float64
	if typical > 0 {
		rate = exploreStates / (typical / 1e3)
	}
	r.metric("throughput_per_s", rate, "1/s")
	r.metric("latency_p50_us", typical*1e3, "us")
	r.metric("latency_p99_us", percentile(times, 99), "us")
	r.note("states_per_s %.1f 1/s (typical of %d searches, %d states each, workers %d; whole-search rates %.0f)",
		rate, len(runs), exploreStates, runtime.NumCPU(), rates)
	if b.ckpt != "" {
		if fi, err := os.Stat(b.ckpt); err != nil {
			r.fail(0, err)
		} else {
			r.note("checkpoint_mb %.3f MB (final checkpoint file)", float64(fi.Size())/1e6)
		}
	}
}

// typicalSearchMS sums, level by level, the median wall time across runs,
// plus the median tail. The searches are checked to be identical, so
// they have the same levels.
func typicalSearchMS(runs []searchRun) float64 {
	if len(runs) == 0 {
		return 0
	}
	var total float64
	for d := range runs[0].levels {
		var at []float64
		for _, run := range runs {
			if d < len(run.levels) {
				at = append(at, run.levels[d])
			}
		}
		total += median(at)
	}
	var tails []float64
	for _, run := range runs {
		tails = append(tails, run.tail)
	}
	return total + median(tails)
}

// instrumented is a search with timed protocol automata and a timed
// safety monitor.
type instrumented struct {
	prot   protocolLayer
	safety layer
	sys    *core.System
}

func (b *exploreBench) instrument() (*instrumented, error) {
	in := &instrumented{}
	sys, err := core.NewSystem(in.prot.wrap(b.proto), false)
	in.sys = sys
	return in, err
}

func (in *instrumented) wrapMonitor(c *explore.Config) {
	c.Monitor = timedMonitor{inner: c.Monitor, l: &in.safety}
}

// trace is the traced run. It times one untraced and one instrumented
// search at the workload's worker count, checks at Workers=1 (where a
// search's order is deterministic) that instrumenting leaves the result
// and the final checkpoint unchanged, then alternates Workers=1 and
// Workers=2 searches for the speedup until the window closes. On the
// checkpointing workload it also times EncodeCheckpoint and
// DecodeCheckpoint on the final file.
func (b *exploreBench) trace(window time.Duration, r *report) {
	workers := runtime.NumCPU()
	deadline := time.Now().Add(window)
	if _, ok := b.checked(r, b.sys, workers, nil); !ok {
		return
	}
	warmShape := b.checkpointShape(r)
	watch := watchRuntime()
	base, ok := b.checked(r, b.sys, workers, nil)
	rt := watch.finish()
	if !ok {
		return
	}
	if b.ckpt != "" {
		r.note("final checkpoint frontier identical across two unwrapped searches at workers=%d: %v",
			workers, warmShape == b.checkpointShape(r))
	}

	in, err := b.instrument()
	if err != nil {
		r.fail(0, err)
		return
	}
	reg := obs.NewRegistry()
	var events bytes.Buffer
	tr := obs.NewTrace(&events)
	traced, ok := b.checked(r, in.sys, workers, func(c *explore.Config) {
		in.wrapMonitor(c)
		c.Metrics = reg
		c.Trace = tr
	})
	if err := tr.Close(); err != nil {
		r.fail(0, fmt.Errorf("search trace: %w", err))
	}
	if !ok {
		return
	}

	a := &attribution{workload: r.workload, wall: traced.elapsed, threads: workers}
	a.add("protocol", "wrapped", in.prot.step.calls.Load(), in.prot.self())
	a.add("safety", "wrapped", in.safety.calls.Load(), time.Duration(in.safety.ns.Load()))
	snap := reg.Snapshot()
	hits, misses := snap.Counter("explore.dedup_hits"), snap.Counter("explore.dedup_misses")
	r.metric("explore.level_ms_p50", percentile(traced.levels, 50), "ms")
	r.metric("explore.level_ms_max", maxOf(traced.levels), "ms")
	if hits+misses > 0 {
		r.metric("explore.dedup_hit_rate", float64(misses)/float64(hits+misses), "ratio")
	}
	r.metric("explore.frontier_peak", float64(snap.Gauge("explore.frontier_peak")), "count")
	r.metric("explore.seen_bytes_per_state", float64(traced.res.SeenSetBytes)/float64(traced.res.StatesExplored), "B")
	r.metric("protocol.steps", float64(in.prot.step.calls.Load()), "count")
	r.metric("protocol.step_ns", in.prot.step.perCall(), "ns")
	r.metric("safety.steps", float64(in.safety.calls.Load()), "count")
	r.metric("safety.step_ns", in.safety.perCall(), "ns")
	if b.ckpt != "" {
		ckptTime, err := checkpointEventTime(events.Bytes())
		if err != nil {
			r.fail(0, err)
		}
		writes := snap.Counter("explore.checkpoints")
		a.add("checkpoint", "events", writes, ckptTime)
		r.metric("checkpoint.writes", float64(writes), "count")
		b.checkpointCodec(r)
	}
	r.metric("runtime.gc_cpu_fraction", rt.gcCPUFraction, "ratio")
	r.metric("runtime.alloc_bytes_per_op", rt.allocBytes/float64(exploreStates), "B")
	r.metric("runtime.heap_peak_mb", rt.heapPeakMB, "MB")
	a.gc = time.Duration(rt.gcCPUSeconds * 1e9)
	a.overhead = traced.elapsed.Seconds()/base.elapsed.Seconds() - 1
	r.metric("unattributed_share", a.unattributed(), "ratio")
	r.metric("trace_overhead_share", a.overhead, "ratio")
	r.table = a

	one, ok := b.checked(r, b.sys, 1, nil)
	if !ok {
		return
	}
	oneShape := b.checkpointShape(r)
	check, err := b.instrument()
	if err != nil {
		r.fail(0, err)
		return
	}
	wrapped, ok := b.checked(r, check.sys, 1, check.wrapMonitor)
	if !ok {
		return
	}
	if !sameSearch(wrapped.res, one.res) || b.checkpointShape(r) != oneShape {
		r.fail(1, fmt.Errorf("instrumented search at workers=1 differs from the plain one in its result or final checkpoint"))
	}

	// Speedup: Workers=1 against Workers=2, alternated, medians.
	w1 := []float64{one.rate()}
	var w2 []float64
	for len(w2) < 3 || time.Now().Before(deadline) {
		two, ok := b.checked(r, b.sys, 2, nil)
		if !ok {
			return
		}
		w2 = append(w2, two.rate())
		if len(w2) >= 3 && !time.Now().Before(deadline) {
			break
		}
		single, ok := b.checked(r, b.sys, 1, nil)
		if !ok {
			return
		}
		w1 = append(w1, single.rate())
	}
	r.metric("explore.speedup_w2", median(w2)/median(w1), "x")
	r.note("speedup_w2: workers=1 %.0f states/s (median of %d), workers=2 %.0f states/s (median of %d)",
		median(w1), len(w1), median(w2), len(w2))
}

// checkpointCodec times DecodeCheckpoint and EncodeCheckpoint on the
// final checkpoint file and checks the round trip is byte-identical.
func (b *exploreBench) checkpointCodec(r *report) {
	data, err := os.ReadFile(b.ckpt)
	if err != nil {
		r.fail(0, err)
		return
	}
	t0 := time.Now()
	c, err := explore.DecodeCheckpoint(bytes.NewReader(data))
	decode := time.Since(t0)
	if err != nil {
		r.fail(1, fmt.Errorf("decode final checkpoint: %w", err))
		return
	}
	var buf bytes.Buffer
	buf.Grow(len(data))
	t0 = time.Now()
	err = explore.EncodeCheckpoint(&buf, c)
	encode := time.Since(t0)
	if err != nil || !bytes.Equal(buf.Bytes(), data) {
		r.fail(1, fmt.Errorf("final checkpoint does not re-encode to its own bytes (err %v)", err))
		return
	}
	r.metric("checkpoint.bytes_per_state", float64(len(data))/float64(exploreStates), "B")
	r.metric("checkpoint.encode_ms", float64(encode)/1e6, "ms")
	r.metric("checkpoint.decode_ms", float64(decode)/1e6, "ms")
	r.metric("checkpoint_mb", float64(len(data))/1e6, "MB")
}

// checkpointEventTime sums the duration_ms of the explore.checkpoint
// events in a JSONL search trace.
func checkpointEventTime(jsonl []byte) (time.Duration, error) {
	var total float64
	dec := json.NewDecoder(bytes.NewReader(jsonl))
	for {
		var ev struct {
			Event      string  `json:"event"`
			DurationMS float64 `json:"duration_ms"`
		}
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return 0, fmt.Errorf("search trace: %w", err)
		}
		if ev.Event == "explore.checkpoint" {
			total += ev.DurationMS
		}
	}
	return time.Duration(total * 1e6), nil
}
