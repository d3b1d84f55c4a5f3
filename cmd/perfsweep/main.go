// Command perfsweep regenerates the quantitative context experiments:
//
//	perfsweep -exp e6    goodput versus window size under loss and delay
//	                     (the ARQ motivation for sliding windows, §1)
//	perfsweep -exp e6b   Go-Back-N versus Selective Repeat goodput under loss
//	perfsweep -exp e4    Stenning header growth over reordering channels
//	                     (the linear growth Theorem 8.5 makes unavoidable)
//
// The explorer's throughput is measured by dlbench (`bash dlbench/run.sh`).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/perf"
)

func main() {
	var (
		exp     = flag.String("exp", "e6", "experiment: e4 (header growth), e6 (goodput sweep) or e6b (GBN vs SR under loss)")
		delay   = flag.Int("delay", 8, "e6: one-way link delay in ticks")
		ticks   = flag.Int("ticks", 50000, "e6: simulated ticks per cell")
		windows = flag.String("windows", "1,2,4,8,16,32", "e6: comma-separated window sizes")
		losses  = flag.String("losses", "0,0.01,0.05,0.1,0.2", "e6: comma-separated loss rates")
		sizes   = flag.String("sizes", "10,30,100,300,1000", "e4: comma-separated message counts")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfsweep: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch *exp {
	case "e6":
		err = runE6(*windows, *losses, *delay, *ticks, *seed)
	case "e6b":
		err = runE6b(*windows, *losses, *delay, *ticks, *seed)
	case "e4":
		err = runE4(*sizes, *seed)
	default:
		err = fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfsweep:", err)
		os.Exit(1)
	}
}

func runE6(windowsCSV, lossesCSV string, delay, ticks int, seed int64) error {
	windows, err := parseInts(windowsCSV)
	if err != nil {
		return err
	}
	losses, err := parseFloats(lossesCSV)
	if err != nil {
		return err
	}
	rows, err := perf.SweepGoodput(windows, losses, delay, ticks, seed)
	if err != nil {
		return err
	}
	fmt.Printf("E6: Go-Back-N goodput (messages/tick), delay=%d (RTT=%d), %d ticks per cell\n", delay, 2*delay, ticks)
	fmt.Printf("%-8s", "loss\\W")
	for _, w := range windows {
		fmt.Printf("%8d", w)
	}
	fmt.Println()
	i := 0
	for _, p := range losses {
		fmt.Printf("%-8.2f", p)
		for range windows {
			fmt.Printf("%8.4f", rows[i].Goodput)
			i++
		}
		fmt.Println()
	}
	fmt.Println("\nexpected shape: goodput rises with W until the pipe (≈RTT packets) saturates;")
	fmt.Println("loss lowers the curve and the saturation point — the classic ARQ motivation for windows.")
	return nil
}

func runE6b(windowsCSV, lossesCSV string, delay, ticks int, seed int64) error {
	windows, err := parseInts(windowsCSV)
	if err != nil {
		return err
	}
	losses, err := parseFloats(lossesCSV)
	if err != nil {
		return err
	}
	fmt.Printf("E6b: Go-Back-N vs Selective Repeat goodput, delay=%d (RTT=%d), %d ticks per cell\n",
		delay, 2*delay, ticks)
	fmt.Printf("%-8s", "loss\\W")
	for _, w := range windows {
		fmt.Printf("%8d-gbn%8d-sr", w, w)
	}
	fmt.Println()
	for _, p := range losses {
		fmt.Printf("%-8.2f", p)
		for _, w := range windows {
			for _, d := range []perf.Discipline{perf.GoBackN, perf.SelectiveRepeat} {
				r, err := perf.SimulateGoodput(perf.GoodputConfig{
					Discipline: d, Window: w, Delay: delay, Loss: p, Ticks: ticks, Seed: seed,
				})
				if err != nil {
					return err
				}
				fmt.Printf("%12.4f", r.Goodput)
			}
		}
		fmt.Println()
	}
	fmt.Println("\nexpected shape: identical without loss; under loss Selective Repeat's per-packet")
	fmt.Println("recovery beats Go-Back-N's whole-window resend, and the gap widens with the window.")
	return nil
}

func runE4(sizesCSV string, seed int64) error {
	sizes, err := parseInts(sizesCSV)
	if err != nil {
		return err
	}
	fmt.Println("E4: Stenning's protocol over the reordering channel C̄ — header growth")
	for _, n := range sizes {
		res, err := perf.MeasureStenningHeaderGrowth(n, seed)
		if err != nil {
			return err
		}
		fmt.Printf("  %s\n", res)
	}
	fmt.Println("\nexpected shape: distinct data headers = n (linear), header bits ≈ log2(n);")
	fmt.Println("Theorem 8.5 shows no bounded-header protocol can avoid this over non-FIFO channels.")
	return nil
}

func parseInts(csv string) ([]int, error) {
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(csv string) ([]float64, error) {
	parts := strings.Split(csv, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
