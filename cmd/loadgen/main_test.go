package main

import (
	"bufio"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

func TestLoopbackCleanRun(t *testing.T) {
	var out strings.Builder
	err := run(&out, options{mode: "loopback", proto: "gbn", n: 8, w: 3, fifo: true,
		msgs: 500, window: 8, faults: "none", seed: 1})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"delivered 500/500", "verdict: DL^{t,r}: OK", "decode errors"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestLoopbackFaultyRunStaysClean(t *testing.T) {
	var out strings.Builder
	err := run(&out, options{mode: "loopback", proto: "gbn", n: 8, w: 3, fifo: true,
		msgs: 200, window: 8, faults: "loss,corrupt", rate: 0.2, seed: 3})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "faults=loss,corrupt") {
		t.Errorf("output missing fault plan:\n%s", out.String())
	}
}

// TestViolationExitPath: traffic beyond the protocol's envelope must
// surface as errViolation — the distinct exit-code path.
func TestViolationExitPath(t *testing.T) {
	var out strings.Builder
	err := run(&out, options{mode: "loopback", proto: "gbn", n: 2, w: 1, fifo: false,
		msgs: 30, window: 6, faults: "reorder,loss", rate: 0.3, seed: 1})
	if !errors.Is(err, errViolation) {
		t.Fatalf("want errViolation, got %v\n%s", err, out.String())
	}
}

func TestTCPMode(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		errc <- transport.Serve(ln, transport.ServerConfig{Resolve: protocol.ByName, MaxSessions: 1})
	}()
	var out strings.Builder
	if err := run(&out, options{mode: "tcp", proto: "abp", fifo: true, msgs: 50,
		window: 4, faults: "none", addr: ln.Addr().String(), timeout: 20 * time.Second, metrics: true}); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "delivered 50/50") {
		t.Errorf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "transport.msgs_delivered") {
		t.Errorf("metrics snapshot missing:\n%s", out.String())
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestBadUsage(t *testing.T) {
	var out strings.Builder
	if err := run(&out, options{mode: "loopback", proto: "nope", msgs: 1}); err == nil {
		t.Error("unknown protocol accepted")
	}
	if err := run(&out, options{mode: "warp", proto: "abp", msgs: 1}); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run(&out, options{mode: "tcp", proto: "abp", msgs: 1, faults: "loss"}); err == nil {
		t.Error("tcp mode accepted faults")
	}
	if err := run(&out, options{mode: "loopback", proto: "abp", msgs: 1, faults: "jitter"}); err == nil {
		t.Error("unknown fault accepted")
	}
}

// TestLatencyLine: every run with spans prints the delivery-latency
// quantile line in the goodput report.
func TestLatencyLine(t *testing.T) {
	var out strings.Builder
	err := run(&out, options{mode: "loopback", proto: "abp", fifo: true,
		msgs: 100, window: 4, faults: "none", seed: 1})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "latency: p50=") ||
		!strings.Contains(out.String(), "p95=") || !strings.Contains(out.String(), "p99=") {
		t.Errorf("latency quantile line missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "(100 spans)") {
		t.Errorf("span count missing:\n%s", out.String())
	}
}

// TestTCPTraceMode: -trace in tcp mode writes a validating client-side
// session trace suitable for obsreport -merge.
func TestTCPTraceMode(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		errc <- transport.Serve(ln, transport.ServerConfig{Resolve: protocol.ByName, MaxSessions: 1})
	}()
	tracePath := filepath.Join(t.TempDir(), "client.jsonl")
	var out strings.Builder
	if err := run(&out, options{mode: "tcp", proto: "gbn", n: 8, w: 3, fifo: true, msgs: 30,
		window: 4, faults: "none", addr: ln.Addr().String(), timeout: 20 * time.Second,
		tracePath: tracePath, snapshotEvery: time.Millisecond}); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var v obs.Validator
	events := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		ev, err := v.Line(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		events[ev]++
	}
	for _, want := range []string{"transport.session", "transport.event", "transport.seal", "metrics"} {
		if events[want] == 0 {
			t.Errorf("client trace has no %q events: %v", want, events)
		}
	}
}
