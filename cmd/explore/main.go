// Command explore runs the bounded explicit-state model checker against a
// data link protocol: it enumerates every reachable state of the composed
// system under a pool of environment inputs (wakes, messages, optional
// crashes) and all scheduling nondeterminism, checking the safety fragment
// of the data link specification (no duplicate, spurious, or — optionally
// — reordered delivery) on every path.
//
// Where crashhunt and headerhunt *construct* the paper's counterexamples
// from the impossibility proofs, explore *searches* for them and returns
// a shortest one; for the positive configurations it produces a bounded
// verification certificate instead.
//
// Examples:
//
//	explore -protocol gbn -n 2 -w 1 -fifo=false -msgs 3     # finds the Thm 8.5 bug
//	explore -protocol abp -crash r -msgs 1                  # finds the Thm 7.5 bug
//	explore -protocol stenning -fifo=false -msgs 3          # verifies (bounded)
//	explore -protocol nv -crash t -crash r                  # verifies (bounded)
//	explore -protocol gbn -workers 8 -cpuprofile cpu.pprof  # parallel + profile
//	explore -protocol abp -crash r -trace t.jsonl -metrics m.json
//
// With -trace the search emits a JSONL event stream (see internal/obs and
// cmd/obsreport); with -metrics the final counter/gauge/histogram
// snapshot is written as JSON ("-" for stderr); with -snapshot-every the
// trace additionally carries periodic metrics-snapshot events that
// obsreport renders as a per-interval throughput table. Long runs print
// a throttled progress line on stderr either way.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/protocol"
)

type crashFlags []ioa.Dir

func (c *crashFlags) String() string { return fmt.Sprint([]ioa.Dir(*c)) }

func (c *crashFlags) Set(v string) error {
	switch v {
	case "t":
		*c = append(*c, ioa.TR)
	case "r":
		*c = append(*c, ioa.RT)
	default:
		return fmt.Errorf("crash station must be t or r, got %q", v)
	}
	return nil
}

// options collects the search parameters of one invocation.
type options struct {
	proto      string
	n, w       int
	fifo       bool
	msgs       int
	depth      int
	inTransit  int
	maxStates  int
	checkFIFO  bool
	crashes    []ioa.Dir
	workers    int
	symmetry   bool
	cpuProfile string
	memProfile string
	tracePath  string
	metrics    string
	snapEvery  time.Duration
	checkpoint string
	ckptEvery  string
	resume     string
	progress   io.Writer                // nil: stderr (tests substitute a buffer)
	onLevel    func(explore.LevelStats) // nil: none (tests hook mid-search behavior)
}

// errInterrupted marks a search stopped gracefully by SIGINT/SIGTERM:
// the in-flight level finished, the final checkpoint (if configured) and
// all obs/profile artifacts were flushed. main maps it to exit code 3 so
// scripts can tell "stopped, resumable" from success (0) and errors (1).
var errInterrupted = errors.New("interrupted")

// exitInterrupted is the distinct status for graceful interruption.
const exitInterrupted = 3

func main() {
	var o options
	var crashes crashFlags
	flag.StringVar(&o.proto, "protocol", "gbn", fmt.Sprintf("protocol: %v", protocol.Names()))
	flag.IntVar(&o.n, "n", 2, "modulus for gbn/sr/frag")
	flag.IntVar(&o.w, "w", 1, "window for gbn/sr; fragment count for frag")
	flag.BoolVar(&o.fifo, "fifo", true, "use FIFO channels Ĉ (false: reordering C̄)")
	flag.IntVar(&o.msgs, "msgs", 3, "messages in the input pool")
	flag.IntVar(&o.depth, "depth", 26, "maximum path length")
	flag.IntVar(&o.inTransit, "intransit", 3, "per-channel in-transit cap (pruning)")
	flag.IntVar(&o.maxStates, "maxstates", explore.DefaultMaxStates, "state budget")
	flag.BoolVar(&o.checkFIFO, "dl6", false, "also check delivery order (DL6)")
	flag.IntVar(&o.workers, "workers", runtime.NumCPU(), "parallel BFS workers per level")
	flag.BoolVar(&o.symmetry, "symmetry", false, "symmetry reduction: dedup on canonical payload/packet-ID fingerprints")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file")
	flag.StringVar(&o.tracePath, "trace", "", "write a JSONL trace of the search to this file")
	flag.StringVar(&o.metrics, "metrics", "", "write the final metrics snapshot JSON to this file (\"-\": stderr)")
	flag.DurationVar(&o.snapEvery, "snapshot-every", 0, "emit metrics-snapshot trace events at this interval (needs -trace)")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "write durable search checkpoints to this file (atomic, resumable)")
	flag.StringVar(&o.ckptEvery, "checkpoint-every", "1", "checkpoint cadence: N (levels) or a duration like 30s")
	flag.StringVar(&o.resume, "resume", "", "resume the search from this checkpoint file (other flags must match)")
	flag.Var(&crashes, "crash", "add a crash+recover event for station t or r (repeatable)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "explore: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	o.crashes = crashes
	if err := run(o, os.Stdout); err != nil {
		if errors.Is(err, errInterrupted) {
			os.Exit(exitInterrupted)
		}
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(1)
	}
}

// parseCheckpointEvery accepts either a level count ("5") or a wall-time
// cadence ("30s", "2m").
func parseCheckpointEvery(s string) (levels int, every time.Duration, err error) {
	if n, err := strconv.Atoi(s); err == nil {
		if n <= 0 {
			return 0, 0, fmt.Errorf("-checkpoint-every: level count must be positive, got %d", n)
		}
		return n, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("-checkpoint-every: want a positive level count or duration, got %q", s)
	}
	return 0, d, nil
}

// startCPUProfile begins CPU profiling into path and returns an
// idempotent stop function that flushes the profile and reports the
// file's close error — so a profile truncated by a failing disk is a
// visible failure, not a silent one. The empty path is a no-op.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeHeapProfile captures a post-GC heap profile to path; the empty
// path is a no-op. It runs on every path out of the search — violation,
// certificate, or budget exhaustion.
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics encodes the snapshot as indented JSON to path ("-" for
// stderr).
func writeMetrics(path string, snap obs.Snapshot) error {
	if path == "-" {
		return snap.WriteJSON(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// progressPrinter returns an OnLevel hook that prints a throttled
// (~1 s) progress line, so multi-minute searches are visibly alive
// without short runs producing any output.
func progressPrinter(w io.Writer) func(explore.LevelStats) {
	last := time.Now()
	return func(ls explore.LevelStats) {
		if time.Since(last) < time.Second {
			return
		}
		last = time.Now()
		rate := 0.0
		if secs := ls.Elapsed.Seconds(); secs > 0 {
			rate = float64(ls.States) / secs
		}
		fmt.Fprintf(w, "explore: depth=%d frontier=%d states=%d (%.0f states/sec)\n",
			ls.Depth, ls.Frontier, ls.States, rate)
	}
}

func run(o options, out io.Writer) (err error) {
	p, err := protocol.ByName(o.proto, o.n, o.w)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(p, o.fifo)
	if err != nil {
		return err
	}
	stopCPU, err := startCPUProfile(o.cpuProfile)
	if err != nil {
		return err
	}
	// The deferred stop keeps error-path exits covered; the explicit stop
	// below flushes the profile before the post-search reporting.
	defer func() {
		if cerr := stopCPU(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	var reg *obs.Registry
	if o.metrics != "" || o.snapEvery > 0 {
		reg = obs.NewRegistry()
	}
	var tr *obs.Trace
	if o.tracePath != "" {
		tr, err = obs.OpenTrace(o.tracePath)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := tr.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	tick := obs.StartTicker(reg, tr, o.snapEvery)
	defer tick.Stop()
	progress := o.progress
	if progress == nil {
		progress = os.Stderr
	}

	var ckOpts explore.CheckpointOptions
	if o.checkpoint != "" {
		if o.ckptEvery == "" {
			o.ckptEvery = "1" // the flag default, for programmatic callers
		}
		levels, every, err := parseCheckpointEvery(o.ckptEvery)
		if err != nil {
			return err
		}
		ckOpts = explore.CheckpointOptions{Path: o.checkpoint, EveryLevels: levels, Every: every}
	}
	var resume *explore.Checkpoint
	if o.resume != "" {
		resume, err = explore.ReadCheckpoint(o.resume)
		if err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
	}

	// SIGINT/SIGTERM request a graceful stop: the search finishes its
	// in-flight level, writes a final checkpoint when -checkpoint is set,
	// and falls out through the normal teardown below, so the obs trace,
	// metrics snapshot and profiles are all flushed, not lost.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sigc; ok {
			fmt.Fprintln(progress, "explore: signal received — finishing the in-flight level")
			close(stop)
		}
	}()
	defer func() {
		signal.Stop(sigc)
		close(sigc)
	}()

	onLevel := progressPrinter(progress)
	if hook := o.onLevel; hook != nil {
		printer := onLevel
		onLevel = func(ls explore.LevelStats) {
			printer(ls)
			hook(ls)
		}
	}

	inputs := []ioa.Action{ioa.Wake(ioa.TR), ioa.Wake(ioa.RT)}
	for i := 0; i < o.msgs; i++ {
		inputs = append(inputs, ioa.SendMsg(ioa.TR, ioa.Message(fmt.Sprintf("m%d", i+1))))
	}
	for _, d := range o.crashes {
		inputs = append(inputs, ioa.Crash(d), ioa.Wake(d))
	}
	began := time.Now()
	res, err := explore.BFS(sys, explore.Config{
		Inputs:       inputs,
		Monitor:      explore.NewSafetyMonitor(o.checkFIFO),
		MaxDepth:     o.depth,
		MaxStates:    o.maxStates,
		MaxInTransit: o.inTransit,
		Workers:      o.workers,
		Symmetry:     o.symmetry,
		Metrics:      reg,
		Trace:        tr,
		OnLevel:      onLevel,
		Checkpoint:   ckOpts,
		Resume:       resume,
		Stop:         stop,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(began)
	// Flush the profiles before reporting: the violation early-exit and
	// the certificate path write identical, complete artifacts.
	if err := stopCPU(); err != nil {
		return err
	}
	if err := writeHeapProfile(o.memProfile); err != nil {
		return err
	}
	tick.Stop() // quiesce the snapshot stream before the terminal metrics event
	if reg != nil {
		tr.Emit("metrics", obs.JSON("snapshot", reg.Snapshot()))
		if o.metrics != "" {
			if err := writeMetrics(o.metrics, reg.Snapshot()); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(out, "protocol=%s channels=%s pool=%d inputs, depth≤%d, in-transit≤%d, workers=%d, symmetry=%t\n",
		p.Name, channelKind(o.fifo), len(inputs), o.depth, o.inTransit, o.workers, o.symmetry)
	fmt.Fprintf(out, "explored %d states in %v (%.0f states/sec, deepest path %d, exhausted=%t, seen-set ≈%d bytes)\n",
		res.StatesExplored, elapsed.Round(time.Millisecond),
		float64(res.StatesExplored)/elapsed.Seconds(), res.DepthReached, res.Exhausted, res.SeenSetBytes)
	if res.Interrupted {
		if o.checkpoint != "" {
			fmt.Fprintf(out, "interrupted at a level barrier — checkpoint written to %s (resume with -resume %s)\n",
				o.checkpoint, o.checkpoint)
		} else {
			fmt.Fprintln(out, "interrupted at a level barrier — no -checkpoint configured, partial search discarded")
		}
		return errInterrupted
	}
	if res.Violation == nil {
		switch {
		// "Exhausted" always means exhausted within -depth: DepthLimited
		// says whether the depth bound was the binding constraint.
		case res.Exhausted && res.DepthLimited:
			fmt.Fprintf(out, "no safety violation reachable within depth %d — bounded verification certificate (depth-limited: unexpanded frontier remains beyond the bound)\n", o.depth)
		case res.Exhausted:
			fmt.Fprintln(out, "no safety violation reachable within the bound — bounded verification certificate")
		default:
			fmt.Fprintln(out, "no violation found, but the state budget was exceeded — not a certificate")
		}
		return nil
	}
	fmt.Fprintf(out, "VIOLATION %s\nshortest trace (%d steps):\n%s", res.Violation, len(res.Trace), ioa.FormatSchedule(res.Trace))
	return nil
}

func channelKind(fifo bool) string {
	if fifo {
		return "Ĉ(FIFO)"
	}
	return "C̄(reordering)"
}
