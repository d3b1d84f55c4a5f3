// Command dlbench is the repository's benchmark: it runs one workload
// of the explorer or the loopback serving path, checks every run's
// output, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics with an attribution table (traced run). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (dlbench/run.sh builds and runs it):
//
//	dlbench --workload explore|explore-ckpt|serve|serve-faults \
//	        --seed N --seconds S --trace 0|1
//
// Metric names, units and the layer each per-layer metric belongs to
// are listed in BENCHMARK.json and dlbench/interactions.json.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// minReps is the fewest measured operations a run reports a median of,
// even when they overrun the window.
const minReps = 3

// setupProbes is how many times an untraced run times the workload's
// set-up in a fresh process; setup_s is their median.
const setupProbes = 15

// endToEnd lists the untraced run's metrics; perLayer the traced run's.
// A traced run reports 0 for a layer the workload does not exercise.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"throughput_per_s", "1/s"},
		{"latency_p50_us", "us"},
		{"latency_p99_us", "us"},
		{"peak_rss_mb", "MB"},
	}
	perLayer = []metricDef{
		{"explore.level_ms_p50", "ms"},
		{"explore.level_ms_max", "ms"},
		{"explore.speedup_w2", "x"},
		{"explore.dedup_hit_rate", "ratio"},
		{"explore.frontier_peak", "count"},
		{"explore.seen_bytes_per_state", "B"},
		{"protocol.steps", "count"},
		{"protocol.step_ns", "ns"},
		{"safety.steps", "count"},
		{"safety.step_ns", "ns"},
		{"checkpoint.writes", "count"},
		{"checkpoint.bytes_per_state", "B"},
		{"checkpoint.encode_ms", "ms"},
		{"checkpoint.decode_ms", "ms"},
		{"checkpoint_mb", "MB"},
		{"monitor.observes", "count"},
		{"monitor.observe_ns", "ns"},
		{"codec.encode_ns", "ns"},
		{"codec.decode_ns", "ns"},
		{"codec.frame_bytes", "B"},
		{"channel.step_ns", "ns"},
		{"transport.frames_per_msg", "ratio"},
		{"transport.retransmits_per_msg", "ratio"},
		{"transport.decode_reject_share", "ratio"},
		{"runtime.gc_cpu_fraction", "ratio"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"runtime.heap_peak_mb", "MB"},
		{"unattributed_share", "ratio"},
		{"trace_overhead_share", "ratio"},
	}
)

type metricDef struct{ name, unit string }

var workloads = []string{"explore", "explore-ckpt", "serve", "serve-faults"}

// workload is a set-up workload, ready to run.
type workload interface {
	// describe names the workload's shape and operation counts.
	describe() string
	// once runs one checked operation (a search or a session) untimed.
	once(r *report)
	measure(window time.Duration, r *report)
	trace(window time.Duration, r *report)
}

// setup builds the named workload for seed. dir is a scratch directory
// the workload may write into.
func setup(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "explore":
		return setupExplore(seed, "")
	case "explore-ckpt":
		return setupExplore(seed, dir)
	case "serve":
		return setupServe(seed, false)
	case "serve-faults":
		return setupServe(seed, true)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
}

// report accumulates one run's outcome.
type report struct {
	workload          string
	attempted, failed int64
	errs              []string
	metrics           map[string]metric
	notes             []string
	table             *attribution
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) metric(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed check; ops is how many attempted operations it
// fails (0 for a check that is not itself an operation).
func (r *report) fail(ops int64, err error) {
	r.failed += ops
	r.errs = append(r.errs, err.Error())
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	traced := fs.Int("trace", 0, "1 for the traced per-layer run")
	probe := fs.Bool("setup-probe", false, "set the workload up, print ready and exit (used to time setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "dlbench: need --seconds ≥ 1 and --trace 0 or 1")
		return 2
	}
	dir, err := os.MkdirTemp(".", ".dlbench-run-")
	if err != nil {
		fmt.Fprintln(stderr, "dlbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	w, err := setup(*name, *seed, dir)
	if err != nil {
		fmt.Fprintln(stderr, "dlbench:", err)
		return 2
	}
	if *probe {
		fmt.Fprintln(stdout, "ready")
		return 0
	}

	r := &report{workload: *name, metrics: map[string]metric{}}
	window := time.Duration(*seconds) * time.Second
	env := fmt.Sprintf("workload %s seed %d nproc %d GOMAXPROCS %d %s: %s", *name, *seed,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.describe())
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
		w.trace(window, r)
		for _, d := range perLayer {
			if _, ok := r.metrics[d.name]; !ok {
				r.metric(d.name, 0, d.unit)
			}
		}
	} else {
		setupS, err := timeSetup(*name, *seed, setupProbes)
		if err != nil {
			fmt.Fprintln(stderr, "dlbench:", err)
			return 1
		}
		r.metric("setup_s", setupS, "s")
		w.measure(window, r)
		r.metric("peak_rss_mb", peakRSSMB(), "MB")
	}

	fmt.Fprintln(stdout, env)
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	if r.table != nil {
		r.table.print(stdout)
	}
	for _, d := range defs {
		m := r.metrics[d.name]
		fmt.Fprintf(stdout, "%-32s %14.4f %s\n", d.name, m.Value, m.Unit)
	}
	failRatio := 0.0
	if r.attempted > 0 {
		failRatio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(stdout, "fail_ratio %.4f (%d of %d operations failed)\n", failRatio, r.failed, r.attempted)
	for _, e := range r.errs {
		fmt.Fprintln(stdout, "check failed:", e)
	}

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(r.errs) == 0 && r.attempted > 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = r.metrics[d.name]
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "dlbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// timeSetup starts this program n times in --setup-probe mode and
// returns the median time from process start to "ready" in seconds:
// process start-up plus protocol registry, system and configuration
// construction, everything before the first timed call.
func timeSetup(name string, seed int64, n int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for range n {
		cmd := exec.Command(exe, "--setup-probe", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		began := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		elapsed := time.Since(began)
		werr := cmd.Wait()
		if err := errors.Join(rerr, werr); err != nil || line != "ready\n" {
			return 0, fmt.Errorf("setup probe: %q: %v", line, err)
		}
		times = append(times, elapsed.Seconds())
	}
	return median(times), nil
}
