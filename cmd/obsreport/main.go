// Command obsreport summarises a JSONL trace produced by cmd/explore or
// cmd/swarm (the -trace flag): it validates every line against the
// internal/obs schema (exiting non-zero on the first malformed line),
// counts events, renders the explorer's per-depth table, summarises the
// final metrics snapshot (top counters, gauges, histogram quantiles),
// and lists the violations the trace carries. With -msc each violation's
// embedded schedule slice is rendered as a message sequence chart, every
// row annotated with its absolute step number in the original run.
//
// Traces with periodic metrics-snapshot events (the -snapshot-every flag
// of dlserve/loadgen/explore/swarm) additionally get a per-interval
// table: throughput deltas between consecutive snapshots and the
// delivery-latency quantiles at each point.
//
// With -merge, obsreport instead takes a client trace and a server trace
// of the same live TCP run (loadgen -trace and dlserve -trace) and joins
// their causally-linearized session streams into one timeline — see
// merge.go and DESIGN.md §10.
//
// Examples:
//
//	explore -protocol abp -crash r -msgs 1 -trace t.jsonl -metrics -
//	obsreport t.jsonl
//	obsreport -msc t.jsonl          # include violation charts
//	swarm -protocols abp-stuck -seeds 20 -trace s.jsonl
//	obsreport -msc s.jsonl
//	obsreport -merge client.jsonl server.jsonl
//	obsreport -merge -msc client.jsonl server.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/ioa"
	"repro/internal/msc"
	"repro/internal/obs"
)

func main() {
	renderMSC := flag.Bool("msc", false, "render each violation's schedule slice as a message sequence chart")
	top := flag.Int("top", 10, "how many counters to list from the metrics snapshot")
	merge := flag.Bool("merge", false, "join a client and a server trace of one live run into a single timeline")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: obsreport [-msc] [-top n] trace.jsonl")
		fmt.Fprintln(os.Stderr, "       obsreport -merge [-msc] client.jsonl server.jsonl")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *merge {
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		if err := mergeReport(flag.Arg(0), flag.Arg(1), *renderMSC, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "obsreport:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := report(f, flag.Arg(0), *renderMSC, *top, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
}

// levelEvent mirrors the explorer's explore.level trace event.
// SymmetryRenames is zero on traces from runs without -symmetry;
// PORPruned counts the partial-order reduction every search applies.
type levelEvent struct {
	Depth           int     `json:"depth"`
	Frontier        int     `json:"frontier"`
	Admitted        int     `json:"admitted"`
	States          int64   `json:"states"`
	StatesPerSec    float64 `json:"states_per_sec"`
	SymmetryRenames int64   `json:"symmetry_renames"`
	PORPruned       int64   `json:"por_pruned"`
}

// violationEvent mirrors the explore.violation and swarm.violation
// events; fields absent from one producer stay zero.
type violationEvent struct {
	Event      string       `json:"event"`
	TUS        int64        `json:"t_us"`
	Combo      string       `json:"combo"`
	Seed       int64        `json:"seed"`
	Property   string       `json:"property"`
	Detail     string       `json:"detail"`
	Steps      int          `json:"steps"`
	StartIndex int          `json:"start_index"`
	Schedule   ioa.Schedule `json:"schedule"`
}

// checkpointEvent mirrors the explorer's explore.checkpoint event.
type checkpointEvent struct {
	Level       int     `json:"level"`
	Nodes       int     `json:"nodes"`
	SeenEntries int     `json:"seen_entries"`
	Bytes       int64   `json:"bytes"`
	DurationMS  float64 `json:"duration_ms"`
}

// metricsEvent mirrors the final metrics event both binaries emit.
type metricsEvent struct {
	Snapshot obs.Snapshot `json:"snapshot"`
}

// snapshotEvent mirrors the obs.Ticker's periodic metrics-snapshot
// event (the -snapshot-every flag).
type snapshotEvent struct {
	TUS        int64        `json:"t_us"`
	IntervalMS int64        `json:"interval_ms"`
	Snapshot   obs.Snapshot `json:"snapshot"`
}

// report validates and summarises one trace stream. Any schema
// violation aborts with an error: a trace that does not validate is a
// bug in the producer, not something to summarise around.
func report(r io.Reader, name string, renderMSC bool, top int, out io.Writer) error {
	var v obs.Validator
	counts := map[string]int64{}
	var levels []levelEvent
	var ckpts []checkpointEvent
	var violations []violationEvent
	var snaps []snapshotEvent
	var snap *obs.Snapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		event, err := v.Line(line)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		counts[event]++
		switch event {
		case "explore.level":
			var le levelEvent
			if err := json.Unmarshal(line, &le); err != nil {
				return fmt.Errorf("%s: line %d: %w", name, v.Lines(), err)
			}
			levels = append(levels, le)
		case "explore.checkpoint":
			var ce checkpointEvent
			if err := json.Unmarshal(line, &ce); err != nil {
				return fmt.Errorf("%s: line %d: %w", name, v.Lines(), err)
			}
			ckpts = append(ckpts, ce)
		case "explore.violation", "swarm.violation":
			var ve violationEvent
			if err := json.Unmarshal(line, &ve); err != nil {
				return fmt.Errorf("%s: line %d: %w", name, v.Lines(), err)
			}
			violations = append(violations, ve)
		case "metrics-snapshot":
			var se snapshotEvent
			if err := json.Unmarshal(line, &se); err != nil {
				return fmt.Errorf("%s: line %d: %w", name, v.Lines(), err)
			}
			snaps = append(snaps, se)
		case "metrics":
			var me metricsEvent
			if err := json.Unmarshal(line, &me); err != nil {
				return fmt.Errorf("%s: line %d: %w", name, v.Lines(), err)
			}
			snap = &me.Snapshot
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if v.Lines() == 0 {
		return fmt.Errorf("%s: empty trace", name)
	}

	fmt.Fprintf(out, "%s: %d events, schema valid\n", name, v.Lines())
	fmt.Fprintln(out, "\nevents:")
	for _, ev := range sortedNames(counts) {
		fmt.Fprintf(out, "  %-20s %6d\n", ev, counts[ev])
	}
	if len(levels) > 0 {
		fmt.Fprintln(out, "\nper-depth:")
		fmt.Fprintf(out, "  %5s %9s %9s %9s %11s\n", "depth", "frontier", "admitted", "states", "states/sec")
		for _, le := range levels {
			fmt.Fprintf(out, "  %5d %9d %9d %9d %11.0f\n",
				le.Depth, le.Frontier, le.Admitted, le.States, le.StatesPerSec)
		}
	}
	if len(ckpts) > 0 {
		writeCheckpoints(out, ckpts)
	}
	if len(snaps) > 0 {
		writeIntervals(out, snaps)
	}
	writeReduction(out, levels, snap)
	if snap != nil {
		writeSnapshot(out, *snap, top)
	}
	for _, ve := range violations {
		fmt.Fprintf(out, "\nviolation (%s", ve.Event)
		if ve.Combo != "" {
			fmt.Fprintf(out, ", %s seed %d", ve.Combo, ve.Seed)
		}
		fmt.Fprintf(out, "): %s — %s\n", ve.Property, ve.Detail)
		fmt.Fprintf(out, "  %d schedule steps recorded", ve.Steps)
		if ve.StartIndex > 0 {
			fmt.Fprintf(out, ", showing steps %d..%d", ve.StartIndex+1, ve.StartIndex+len(ve.Schedule))
		}
		fmt.Fprintln(out)
		if renderMSC && len(ve.Schedule) > 0 {
			start := ve.StartIndex
			fmt.Fprint(out, msc.Render(ve.Schedule, msc.Options{
				Annotate: func(i int, _ ioa.Action) string {
					return fmt.Sprintf("step %d", start+i+1)
				},
			}))
		}
	}
	return nil
}

// writeCheckpoints summarises the explorer's durable snapshots: total
// write cost (the overhead a checkpointed run pays), plus the final
// checkpoint's shape — the one a resume would start from.
func writeCheckpoints(out io.Writer, ckpts []checkpointEvent) {
	var bytes int64
	var ms float64
	for _, c := range ckpts {
		bytes += c.Bytes
		ms += c.DurationMS
	}
	last := ckpts[len(ckpts)-1]
	fmt.Fprintf(out, "\ncheckpoints: %d written, %d bytes total in %.1f ms\n", len(ckpts), bytes, ms)
	fmt.Fprintf(out, "  last at level %d: %d frontier nodes, %d seen entries, %d bytes\n",
		last.Level, last.Nodes, last.SeenEntries, last.Bytes)
}

// writeIntervals renders the streamed metrics-snapshot series as a
// per-interval table: the work counter's delta and rate between
// consecutive snapshots, and the cumulative delivery-latency quantiles
// at each point. The work counter is whichever of the producers'
// throughput counters the trace actually moves: transport.msgs_delivered
// (serving path), explore.states_expanded (model checker) or swarm.steps.
func writeIntervals(out io.Writer, snaps []snapshotEvent) {
	counter := "transport.msgs_delivered"
	last := snaps[len(snaps)-1].Snapshot
	for _, name := range []string{"transport.msgs_delivered", "explore.states_expanded", "swarm.steps"} {
		if last.Counter(name) > 0 {
			counter = name
			break
		}
	}
	fmt.Fprintf(out, "\nsnapshot stream (%d snapshots, %s):\n", len(snaps), counter)
	fmt.Fprintf(out, "  %10s %10s %10s %12s %8s %8s %8s\n", "t_ms", "total", "delta", "per_sec", "p50µs", "p95µs", "p99µs")
	var prevTotal, prevTUS int64
	for i, se := range snaps {
		total := se.Snapshot.Counter(counter)
		delta := total - prevTotal
		rate := "—"
		if i > 0 && se.TUS > prevTUS {
			rate = fmt.Sprintf("%.0f", float64(delta)/(float64(se.TUS-prevTUS)/1e6))
		}
		p50, p95, p99 := "—", "—", "—"
		if lat, ok := se.Snapshot.Histogram("transport.delivery_latency"); ok && lat.Count > 0 {
			p50, p95, p99 = fmt.Sprint(lat.P50), fmt.Sprint(lat.P95), fmt.Sprint(lat.P99)
		}
		fmt.Fprintf(out, "  %10d %10d %10d %12s %8s %8s %8s\n",
			se.TUS/1000, total, delta, rate, p50, p95, p99)
		prevTotal, prevTUS = total, se.TUS
	}
}

// writeReduction summarises the symmetry/POR reductions when the trace
// carries any evidence of them: nonzero per-level rename/prune deltas,
// or the explore.symmetry_renames / explore.por_pruned counters in the
// final metrics snapshot. Traces of searches in which neither reduction
// did anything print nothing here.
func writeReduction(out io.Writer, levels []levelEvent, snap *obs.Snapshot) {
	var renames, pruned int64
	for _, le := range levels {
		renames += le.SymmetryRenames
		pruned += le.PORPruned
	}
	if snap != nil {
		for _, c := range snap.Counters {
			switch c.Name {
			case "explore.symmetry_renames":
				if c.Value > renames {
					renames = c.Value
				}
			case "explore.por_pruned":
				if c.Value > pruned {
					pruned = c.Value
				}
			}
		}
	}
	// The counters are registered on every run, so zero counters mean
	// "nothing reduced": stay silent rather than print an all-zero
	// section.
	if renames == 0 && pruned == 0 {
		return
	}
	fmt.Fprintln(out, "\nreduction:")
	fmt.Fprintf(out, "  symmetry renames     %10d\n", renames)
	fmt.Fprintf(out, "  por pruned           %10d\n", pruned)
	var active int
	for _, le := range levels {
		if le.SymmetryRenames > 0 || le.PORPruned > 0 {
			active++
		}
	}
	if active > 0 {
		fmt.Fprintf(out, "  %5s %10s %10s\n", "depth", "renames", "pruned")
		for _, le := range levels {
			if le.SymmetryRenames == 0 && le.PORPruned == 0 {
				continue
			}
			fmt.Fprintf(out, "  %5d %10d %10d\n", le.Depth, le.SymmetryRenames, le.PORPruned)
		}
	}
}

// writeSnapshot prints the metrics snapshot: top counters by value, all
// gauges, and every histogram's quantile summary.
func writeSnapshot(out io.Writer, snap obs.Snapshot, top int) {
	if len(snap.Counters) > 0 {
		counters := append([]obs.CounterSnapshot(nil), snap.Counters...)
		sort.SliceStable(counters, func(i, j int) bool { return counters[i].Value > counters[j].Value })
		if top > 0 && len(counters) > top {
			counters = counters[:top]
		}
		fmt.Fprintf(out, "\ntop counters (%d of %d):\n", len(counters), len(snap.Counters))
		for _, c := range counters {
			fmt.Fprintf(out, "  %-28s %10d\n", c.Name, c.Value)
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(out, "\ngauges:")
		for _, g := range snap.Gauges {
			fmt.Fprintf(out, "  %-28s %10d\n", g.Name, g.Value)
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintln(out, "\nhistograms:")
		fmt.Fprintf(out, "  %-28s %8s %8s %6s %6s %6s\n", "name", "count", "mean", "p50", "p90", "p99")
		for _, h := range snap.Histograms {
			fmt.Fprintf(out, "  %-28s %8d %8.1f %6d %6d %6d\n", h.Name, h.Count, h.Mean, h.P50, h.P90, h.P99)
		}
	}
}

// sortedNames returns the map's keys in sorted order.
func sortedNames(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
