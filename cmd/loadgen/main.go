// Command loadgen pushes a message workload through a live transport
// backend — the in-process loopback link or a TCP session against
// dlserve — with the online DL/PL conformance monitors attached, and
// prints goodput, delivery-latency quantiles and the verdict summary.
//
// Exit codes: 0 clean, 1 harness error, 2 usage, 4 monitor violation.
//
// Examples:
//
//	loadgen -mode loopback -protocol gbn -msgs 100000
//	loadgen -mode loopback -protocol gbn -n 2 -w 1 -faults reorder,loss -fifo=false
//	loadgen -mode tcp -addr 127.0.0.1:4444 -protocol abp -msgs 1000
//	loadgen -mode tcp -addr 127.0.0.1:4444 -trace client.jsonl -snapshot-every 1s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// errViolation marks a run whose monitors flagged a specification
// violation — a finding, reported with its own exit code, distinct
// from harness failures.
var errViolation = errors.New("monitor violation")

func main() {
	var (
		mode    = flag.String("mode", "loopback", "backend: loopback or tcp")
		proto   = flag.String("protocol", "gbn", fmt.Sprintf("protocol: %v", protocol.Names()))
		n       = flag.Int("n", 8, "sequence modulus (gbn/sr/frag)")
		w       = flag.Int("w", 3, "window / fragment count (gbn/sr/frag)")
		fifo    = flag.Bool("fifo", true, "claim the FIFO link discipline (judges PL-FIFO)")
		msgs    = flag.Int("msgs", 1000, "messages to push")
		window  = flag.Int("window", 8, "application in-flight window")
		faults  = flag.String("faults", "none", "loopback middlebox faults: none, all, or comma list of loss,dup,reorder,corrupt")
		rate    = flag.Float64("rate", 0.2, "per-frame probability of each enabled fault")
		seed    = flag.Int64("seed", 1, "fault/reorder seed (loopback runs are deterministic per seed)")
		addr    = flag.String("addr", "127.0.0.1:4444", "dlserve address (tcp mode)")
		timeout = flag.Duration("timeout", 60*time.Second, "session deadline (tcp mode)")
		metrics = flag.Bool("metrics", false, "print an obs snapshot as JSON")
		trace   = flag.String("trace", "", "write a JSONL trace (session events in tcp mode) to this file")
		every   = flag.Duration("snapshot-every", 0, "emit metrics-snapshot trace events at this interval (needs -trace)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	err := run(os.Stdout, options{
		mode: *mode, proto: *proto, n: *n, w: *w, fifo: *fifo,
		msgs: *msgs, window: *window, faults: *faults, rate: *rate,
		seed: *seed, addr: *addr, timeout: *timeout, metrics: *metrics,
		tracePath: *trace, snapshotEvery: *every,
	})
	switch {
	case err == nil:
	case errors.Is(err, errViolation):
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(4)
	default:
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type options struct {
	mode, proto   string
	n, w          int
	fifo          bool
	msgs, window  int
	faults        string
	rate          float64
	seed          int64
	addr          string
	timeout       time.Duration
	metrics       bool
	tracePath     string
	snapshotEvery time.Duration
}

func run(out io.Writer, o options) (err error) {
	p, err := protocol.ByName(o.proto, o.n, o.w)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
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
	tick := obs.StartTicker(reg, tr, o.snapshotEvery)
	defer tick.Stop()
	start := time.Now()

	var verdicts transport.VerdictSet
	var violations int
	switch o.mode {
	case "loopback":
		plan, err := transport.ParseFaultPlan(o.faults)
		if err != nil {
			return err
		}
		plan.Rate = o.rate
		res, runErr := transport.RunLoopback(transport.LoopbackConfig{
			Protocol: p,
			FIFO:     o.fifo,
			Msgs:     o.msgs,
			Window:   o.window,
			Faults:   plan,
			Seed:     o.seed,
			Registry: reg,
		})
		if res != nil {
			verdicts, violations = res.Verdicts, len(res.Violations)
			fmt.Fprintf(out, "loopback %s: faults=%s rate=%.2f seed=%d\n", p.Name, plan, o.rate, o.seed)
			report(out, reg, start, o.msgs)
		}
		if runErr != nil {
			return runErr
		}
	case "tcp":
		if o.faults != "" && o.faults != "none" {
			return fmt.Errorf("fault injection is loopback-only; the TCP path is a real link")
		}
		res, runErr := transport.Dial(o.addr, transport.ClientConfig{
			Protocol:  p,
			ProtoName: o.proto,
			N:         o.n,
			W:         o.w,
			FIFO:      o.fifo,
			Msgs:      o.msgs,
			Window:    o.window,
			Timeout:   o.timeout,
			Registry:  reg,
			Trace:     tr,
			Session:   1,
		})
		if res != nil {
			verdicts, violations = res.Verdicts, len(res.Violations)
			fmt.Fprintf(out, "tcp %s: server=%s\n", p.Name, o.addr)
			report(out, reg, start, o.msgs)
		}
		if runErr != nil {
			return runErr
		}
	default:
		return fmt.Errorf("unknown mode %q (want loopback or tcp)", o.mode)
	}
	tick.Stop()
	if tr != nil {
		tr.Emit("metrics", obs.JSON("snapshot", reg.Snapshot()))
	}

	fmt.Fprintf(out, "verdict: %s\n", verdicts)
	if o.metrics {
		if err := reg.Snapshot().WriteJSON(out); err != nil {
			return err
		}
	}
	if !verdicts.Clean() {
		return fmt.Errorf("%w: %d signalled online; %s", errViolation, violations, verdicts)
	}
	return nil
}

// report prints the goodput and latency lines from the obs counters —
// the metrics are the source of truth, not the in-process result
// struct.
func report(out io.Writer, reg *obs.Registry, start time.Time, want int) {
	elapsed := time.Since(start)
	snap := reg.Snapshot()
	delivered := snap.Counter("transport.msgs_delivered")
	goodput := float64(delivered) / elapsed.Seconds()
	fmt.Fprintf(out, "delivered %d/%d messages in %v (%.0f msg/s)\n", delivered, want, elapsed.Round(time.Millisecond), goodput)
	if lat, ok := snap.Histogram("transport.delivery_latency"); ok && lat.Count > 0 {
		line := fmt.Sprintf("latency: p50=%dµs p95=%dµs p99=%dµs (%d spans)", lat.P50, lat.P95, lat.P99, lat.Count)
		if rtx, ok := snap.Histogram("transport.retransmits_per_msg"); ok && rtx.Count > 0 {
			line += fmt.Sprintf(", %.2f retransmits/msg", rtx.Mean)
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "frames: %d sent (%d bytes), %d received, %d decode errors, %d faults injected\n",
		snap.Counter("transport.frames_sent"), snap.Counter("transport.frame_bytes_sent"),
		snap.Counter("transport.frames_received"), snap.Counter("transport.decode_errors"),
		snap.Counter("transport.faults_injected"))
}
