package transport

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestLoopbackLatencySpans: a clean loopback run with a registry
// attached must record one delivery-latency span and one retransmit
// count (zero, on a clean link) per delivered message.
func TestLoopbackLatencySpans(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := RunLoopback(LoopbackConfig{
		Protocol: mustProtocol(t, "abp"),
		FIFO:     true,
		Msgs:     25,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdicts.Clean() {
		t.Fatalf("verdicts not clean: %s", res.Verdicts)
	}
	snap := reg.Snapshot()
	lat, ok := snap.Histogram("transport.delivery_latency")
	if !ok || lat.Count != 25 {
		t.Fatalf("delivery_latency count = %+v, want 25 spans", lat)
	}
	rtx, ok := snap.Histogram("transport.retransmits_per_msg")
	if !ok || rtx.Count != 25 {
		t.Fatalf("retransmits_per_msg count = %+v, want 25 observations", rtx)
	}
	if rtx.Sum != 0 {
		t.Fatalf("clean link recorded %d retransmits", rtx.Sum)
	}
}

// TestLoopbackLossyRetransmitSpans: under frame loss the protocol must
// retransmit, and the spans must see it — the retransmit histogram sum
// is positive while every delivered message still gets a span.
func TestLoopbackLossyRetransmitSpans(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := RunLoopback(LoopbackConfig{
		Protocol: mustProtocol(t, "abp"),
		FIFO:     true,
		Msgs:     20,
		Faults:   FaultPlan{Loss: true, Rate: 0.3},
		Seed:     7,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdicts.Clean() {
		t.Fatalf("verdicts not clean: %s", res.Verdicts)
	}
	snap := reg.Snapshot()
	if lat, ok := snap.Histogram("transport.delivery_latency"); !ok || lat.Count != 20 {
		t.Fatalf("delivery_latency = %+v, want 20 spans", lat)
	}
	rtx, ok := snap.Histogram("transport.retransmits_per_msg")
	if !ok || rtx.Count != 20 {
		t.Fatalf("retransmits_per_msg = %+v, want 20 observations", rtx)
	}
	if rtx.Sum == 0 {
		t.Fatal("lossy link recorded zero retransmits")
	}
}

// traceEvent is the decoded form of one transport.* trace line.
type traceEvent struct {
	Event   string          `json:"event"`
	Session int64           `json:"session"`
	Side    string          `json:"side"`
	Station string          `json:"station"`
	Proto   string          `json:"proto"`
	Origin  string          `json:"origin"`
	K       int64           `json:"k"`
	Action  json.RawMessage `json:"action"` // ioa.Action wire form; deterministic, compared raw
	Verdict string          `json:"verdict"`
	Clean   *bool           `json:"clean"`
}

// parseTrace validates a JSONL trace and decodes its events.
func parseTrace(t *testing.T, name string, buf *bytes.Buffer) []traceEvent {
	t.Helper()
	var v obs.Validator
	var out []traceEvent
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if _, err := v.Line(sc.Bytes()); err != nil {
			t.Fatalf("%s trace: %v", name, err)
		}
		var ev traceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("%s trace: %v", name, err)
		}
		out = append(out, ev)
	}
	if len(out) == 0 {
		t.Fatalf("%s trace is empty", name)
	}
	return out
}

// originSeq extracts the k-ordered action strings one origin
// contributed to a trace, checking the per-origin k indices are
// consecutive from zero.
func originSeq(t *testing.T, name string, evs []traceEvent, origin string) []string {
	t.Helper()
	var out []string
	for _, ev := range evs {
		if ev.Event != "transport.event" || ev.Origin != origin {
			continue
		}
		if ev.K != int64(len(out)) {
			t.Fatalf("%s trace: origin %s k=%d, want %d", name, origin, ev.K, len(out))
		}
		out = append(out, string(ev.Action))
	}
	return out
}

// TestTCPTraceBothSides runs one session with traces attached on both
// endpoints and pins the cross-endpoint merge contract: both traces
// validate, agree on the session parameters, assign each origin the
// same k-ordered action sequence (the client's local tail after its
// Bye is the one tolerated divergence), and seal clean. The client
// registry must also carry one latency span per message.
func TestTCPTraceBothSides(t *testing.T) {
	var serverBuf, clientBuf bytes.Buffer
	serverTrace := obs.NewTrace(&serverBuf)
	clientTrace := obs.NewTrace(&clientBuf)
	reg := obs.NewRegistry()

	addr, sums, shutdown := startServer(t, ServerConfig{Trace: serverTrace})
	res, err := Dial(addr, ClientConfig{
		Protocol:  mustProtocol(t, "gbn"),
		ProtoName: "gbn",
		N:         8,
		W:         3,
		FIFO:      true,
		Msgs:      15,
		Timeout:   20 * time.Second,
		Registry:  reg,
		Trace:     clientTrace,
		Session:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := <-sums
	shutdown()
	if err := serverTrace.Close(); err != nil {
		t.Fatal(err)
	}
	if err := clientTrace.Close(); err != nil {
		t.Fatal(err)
	}
	if !res.Verdicts.Clean() || !sum.Verdicts.Clean() {
		t.Fatalf("verdicts not clean: client %s server %s", res.Verdicts, sum.Verdicts)
	}

	client := parseTrace(t, "client", &clientBuf)
	server := parseTrace(t, "server", &serverBuf)
	for name, evs := range map[string][]traceEvent{"client": client, "server": server} {
		open, seal := evs[0], evs[len(evs)-1]
		if open.Event != "transport.session" || open.Proto != "gbn" || open.Session != 1 {
			t.Fatalf("%s trace opens with %+v", name, open)
		}
		if seal.Event != "transport.seal" || seal.Clean == nil || !*seal.Clean {
			t.Fatalf("%s trace seals with %+v", name, seal)
		}
	}
	if client[0].Side != "client" || client[0].Station != "t" {
		t.Fatalf("client session header %+v", client[0])
	}
	if server[0].Side != "server" || server[0].Station != "r" {
		t.Fatalf("server session header %+v", server[0])
	}

	// Merge soundness: per-origin subsequences agree. The server's view
	// of origin t may be a prefix of the client's (the client keeps
	// tracing local actions after its Bye); origin r must match exactly.
	for _, origin := range []string{"t", "r"} {
		c, s := originSeq(t, "client", client, origin), originSeq(t, "server", server, origin)
		if origin == "t" && len(s) < len(c) {
			c = c[:len(s)]
		}
		if len(c) != len(s) {
			t.Fatalf("origin %s: client has %d events, server %d", origin, len(c), len(s))
		}
		for k := range c {
			if c[k] != s[k] {
				t.Fatalf("origin %s diverges at k=%d: client %s, server %s", origin, k, c[k], s[k])
			}
		}
		if len(s) == 0 {
			t.Fatalf("origin %s contributed no events", origin)
		}
	}

	if lat, ok := reg.Snapshot().Histogram("transport.delivery_latency"); !ok || lat.Count != 15 {
		t.Fatalf("client delivery_latency = %+v, want 15 spans", lat)
	}
}

// TestSessionSummaryTelemetry pins the /sessions payload fields: frame
// counts, duration and session IDs are filled in for served sessions.
func TestSessionSummaryTelemetry(t *testing.T) {
	addr, sums, shutdown := startServer(t, ServerConfig{})
	defer shutdown()
	for i := 1; i <= 2; i++ {
		if _, err := Dial(addr, ClientConfig{
			Protocol:  mustProtocol(t, "abp"),
			ProtoName: "abp",
			FIFO:      true,
			Msgs:      5,
			Timeout:   10 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
		sum := <-sums
		if sum.Err != nil {
			t.Fatal(sum.Err)
		}
		if sum.ID != int64(i) {
			t.Errorf("session %d: ID = %d", i, sum.ID)
		}
		if sum.FramesIn == 0 || sum.FramesOut == 0 {
			t.Errorf("session %d: frame counts not recorded: %+v", i, sum)
		}
		if sum.Duration <= 0 {
			t.Errorf("session %d: duration not recorded", i)
		}
		if sum.Violations != 0 {
			t.Errorf("session %d: spurious violations: %d", i, sum.Violations)
		}
	}
}
