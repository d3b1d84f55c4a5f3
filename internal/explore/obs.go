package explore

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// This file is the explorer's observability surface. All instrument
// handles are resolved once per BFS from Config.Metrics; with metrics
// disabled every handle is nil and each hot-path call collapses to a
// nil check (the obs package's zero-cost-when-disabled contract), so
// the throughput of an uninstrumented search is unchanged.
//
// Exported metric names:
//
//	explore.states_expanded      counter  frontier nodes expanded
//	explore.worker.NN.expanded   counter  per-worker share of the above
//	explore.states_admitted      counter  fresh states admitted (excl. start)
//	explore.dedup_hits           counter  successors merged into seen states
//	explore.dedup_misses         counter  successors that were new
//	explore.frontier_peak        gauge    widest BFS level
//	explore.depth                gauge    deepest completed level
//	explore.seen_bytes           gauge    approximate dedup-set heap
//	explore.seen.shard_min/_max  gauge    seen-set shard occupancy spread
//	explore.fanout               histogram successors per expanded node
//	explore.checkpoints          counter  checkpoint files written
//	explore.checkpoint_bytes     gauge    size of the last checkpoint written
//	explore.symmetry_renames     counter  canonical token indices assigned
//	                                      while building dedup keys (0 when
//	                                      symmetry reduction is off)
//	explore.por_pruned           counter  transitions suppressed by
//	                                      partial-order reduction
//	explore.ample_size           histogram successors per expanded node with
//	                                      POR suppression applied (the
//	                                      ample-set sizes; only observed when
//	                                      POR is on)
//
// Trace events: explore.level (one per completed BFS level),
// explore.checkpoint (one per durable snapshot: level, nodes, bytes,
// duration), explore.violation (with the violating schedule embedded),
// explore.seen (shard occupancy) and explore.done.

// LevelStats summarises one completed BFS level for Config.OnLevel.
type LevelStats struct {
	// Depth is the depth of the level just expanded.
	Depth int
	// Frontier is the number of nodes at this level.
	Frontier int
	// Admitted is the number of fresh states admitted at Depth+1.
	Admitted int
	// States is the total number of distinct states admitted so far.
	States int64
	// Elapsed is the wall time since the search started.
	Elapsed time.Duration
}

// instruments is the explorer's resolved handle set; the zero value
// (all nil) is the disabled mode.
type instruments struct {
	expanded     *obs.Counter
	admitted     *obs.Counter
	dedupHit     *obs.Counter
	dedupMiss    *obs.Counter
	frontierPeak *obs.Gauge
	depth        *obs.Gauge
	seenBytes    *obs.Gauge
	shardMin     *obs.Gauge
	shardMax     *obs.Gauge
	fanout       *obs.Histogram
	ckpts        *obs.Counter
	ckptBytes    *obs.Gauge
	symRenames   *obs.Counter
	porPruned    *obs.Counter
	ampleSize    *obs.Histogram
	workers      []*obs.Counter
}

func newInstruments(reg *obs.Registry, workers int) instruments {
	ins := instruments{
		expanded:     reg.Counter("explore.states_expanded"),
		admitted:     reg.Counter("explore.states_admitted"),
		dedupHit:     reg.Counter("explore.dedup_hits"),
		dedupMiss:    reg.Counter("explore.dedup_misses"),
		frontierPeak: reg.Gauge("explore.frontier_peak"),
		depth:        reg.Gauge("explore.depth"),
		seenBytes:    reg.Gauge("explore.seen_bytes"),
		shardMin:     reg.Gauge("explore.seen.shard_min"),
		shardMax:     reg.Gauge("explore.seen.shard_max"),
		fanout:       reg.Histogram("explore.fanout", obs.LinearBuckets(2, 2, 16)),
		ckpts:        reg.Counter("explore.checkpoints"),
		ckptBytes:    reg.Gauge("explore.checkpoint_bytes"),
		symRenames:   reg.Counter("explore.symmetry_renames"),
		porPruned:    reg.Counter("explore.por_pruned"),
		ampleSize:    reg.Histogram("explore.ample_size", obs.LinearBuckets(2, 2, 16)),
		workers:      make([]*obs.Counter, workers),
	}
	for w := range ins.workers {
		ins.workers[w] = reg.Counter(fmt.Sprintf("explore.worker.%02d.expanded", w))
	}
	return ins
}

// observeLevel records one completed level on the gauges, the trace and
// the OnLevel callback.
func (s *search) observeLevel(depth, frontier, admitted int) {
	s.ins.depth.Set(int64(depth))
	s.ins.frontierPeak.SetMax(int64(frontier))
	// Flush this level's reduction tallies into the cumulative counters;
	// the per-level deltas also ride on the explore.level event so
	// obsreport can chart reduction work by depth.
	renames := s.levelRenames.Swap(0)
	pruned := s.levelPruned.Swap(0)
	s.ins.symRenames.Add(renames)
	s.ins.porPruned.Add(pruned)
	if s.cfg.Trace == nil && s.cfg.OnLevel == nil {
		return
	}
	elapsed := time.Since(s.began) // lint:ignore determinism trace/progress-only rate; never reaches Result
	states := s.count.Load()
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(states) / secs
	}
	s.cfg.Trace.Emit("explore.level",
		obs.Int("depth", int64(depth)),
		obs.Int("frontier", int64(frontier)),
		obs.Int("admitted", int64(admitted)),
		obs.Int("states", states),
		obs.F64("states_per_sec", rate),
		obs.Int("symmetry_renames", renames),
		obs.Int("por_pruned", pruned),
	)
	if s.cfg.OnLevel != nil {
		s.cfg.OnLevel(LevelStats{Depth: depth, Frontier: frontier, Admitted: admitted, States: states, Elapsed: elapsed})
	}
}

// observeCheckpoint records one durable snapshot write: the counters,
// the last-write size gauge, and a trace event carrying the write
// latency — the only place checkpoint timing exists (the file itself is
// wall-clock-free).
func (s *search) observeCheckpoint(level, nodes, entries int, bytes int64, dur time.Duration) {
	s.ins.ckpts.Inc()
	s.ins.ckptBytes.Set(bytes)
	s.cfg.Trace.Emit("explore.checkpoint",
		obs.Int("level", int64(level)),
		obs.Int("nodes", int64(nodes)),
		obs.Int("seen_entries", int64(entries)),
		obs.Int("bytes", bytes),
		obs.F64("duration_ms", float64(dur.Microseconds())/1000),
	)
}

// observeDone records the final search outcome: seen-set shard
// occupancy, the violation (schedule included, so trace tooling can
// re-render it), and the closing summary event.
func (s *search) observeDone(res *Result) {
	if s.cfg.Metrics == nil && s.cfg.Trace == nil {
		return
	}
	lens := s.seen.ShardLens()
	minLen, maxLen, total := lens[0], lens[0], 0
	for _, n := range lens {
		minLen = min(minLen, n)
		maxLen = max(maxLen, n)
		total += n
	}
	s.ins.seenBytes.Set(res.SeenSetBytes)
	s.ins.shardMin.Set(int64(minLen))
	s.ins.shardMax.Set(int64(maxLen))
	s.cfg.Trace.Emit("explore.seen",
		obs.Int("shards", int64(len(lens))),
		obs.Int("entries", int64(total)),
		obs.Int("shard_min", int64(minLen)),
		obs.Int("shard_max", int64(maxLen)),
		obs.JSON("shard_lens", lens),
	)
	if res.Violation != nil {
		s.cfg.Trace.Emit("explore.violation",
			obs.Str("property", res.Violation.Property),
			obs.Str("detail", res.Violation.Detail),
			obs.Int("steps", int64(len(res.Trace))),
			obs.Int("start_index", 0),
			obs.JSON("schedule", res.Trace),
		)
	}
	s.cfg.Trace.Emit("explore.done",
		obs.Int("states", int64(res.StatesExplored)),
		obs.Int("depth", int64(res.DepthReached)),
		obs.Bool("exhausted", res.Exhausted),
		obs.Bool("depth_limited", res.DepthLimited),
		obs.Bool("interrupted", res.Interrupted),
		obs.Bool("violation", res.Violation != nil),
		obs.Int("seen_bytes", res.SeenSetBytes),
		// lint:ignore determinism trace-only timing; never reaches Result
		obs.F64("elapsed_ms", float64(time.Since(s.began).Microseconds())/1000),
	)
}
