package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// maxOf returns the largest value of xs; 0 for an empty slice.
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// in MiB. It returns 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// runtimeSample is a reading of the Go runtime's cumulative CPU and
// allocation counters.
type runtimeSample struct {
	gcCPU, userCPU, allocBytes float64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: v(0), userCPU: v(1), allocBytes: v(2)}
}

// runtimeWindow is the runtime layer's cost over one measured interval:
// the GC's share of busy CPU (the figure a CPU profile attributes to the
// collector), bytes allocated, and the peak live-plus-garbage heap.
type runtimeWindow struct {
	gcCPUSeconds  float64
	gcCPUFraction float64
	allocBytes    float64
	heapPeakMB    float64
}

// heapWatch samples the heap's object bytes every few milliseconds
// until stopped, keeping the maximum.
type heapWatch struct {
	start runtimeSample
	stop  chan struct{}
	done  sync.WaitGroup
	peak  float64
}

func watchRuntime() *heapWatch {
	w := &heapWatch{start: readRuntime(), stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			w.peak = max(w.peak, float64(sample[0].Value.Uint64()))
		}
	}
	read()
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return w
}

// finish stops the sampler and returns the interval's runtime costs.
func (w *heapWatch) finish() runtimeWindow {
	close(w.stop)
	w.done.Wait()
	end := readRuntime()
	gc := end.gcCPU - w.start.gcCPU
	busy := gc + end.userCPU - w.start.userCPU
	out := runtimeWindow{
		gcCPUSeconds: gc,
		allocBytes:   end.allocBytes - w.start.allocBytes,
		heapPeakMB:   w.peak / (1 << 20),
	}
	if busy > 0 {
		out.gcCPUFraction = gc / busy
	}
	return out
}
