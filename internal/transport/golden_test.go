package transport

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/loopback_golden.json from the current loopback link")

// loopbackGoldenPath holds the pinned loopback outcomes
// TestLoopbackGolden compares against. Regenerate with `go test
// ./internal/transport -run TestLoopbackGolden -update` only when a
// change is meant to alter what a seeded run does, and review the diff.
const loopbackGoldenPath = "testdata/loopback_golden.json"

// loopbackGolden is everything a seeded loopback run reports that must
// not depend on how the middlebox stores frames in transit. The
// delivery order and the full schedule are pinned as SHA-256 digests of
// their rendered actions; the registry is pinned through its counters
// and gauges (the latency histogram is wall-clock and is left out).
type loopbackGolden struct {
	Err            string           `json:"err,omitempty"`
	Steps          int              `json:"steps"`
	FramesSent     int              `json:"frames_sent"`
	DecodeErrors   int              `json:"decode_errors"`
	Verdicts       string           `json:"verdicts"`
	Violations     int              `json:"violations"`
	DeliveredSHA   string           `json:"delivered_sha256"`
	ScheduleSHA    string           `json:"schedule_sha256"`
	ScheduleLength int              `json:"schedule_length"`
	Metrics        map[string]int64 `json:"metrics"`
}

// TestLoopbackGolden pins seeded loopback runs of three protocols under
// six fault plans and three seeds. Every fault draw, reorder choice and
// hold comes from the seed, so each case is a pure function of its
// configuration.
func TestLoopbackGolden(t *testing.T) {
	plans := []string{"none", "loss", "dup,loss", "reorder,corrupt", "loss,reorder,corrupt", "all"}
	var cases []string
	got := map[string]loopbackGolden{}
	for _, proto := range []string{"abp", "stenning", "gbn"} {
		for _, plan := range plans {
			faults, err := ParseFaultPlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed=%d", proto, plan, seed)
				cases = append(cases, name)
				reg := obs.NewRegistry()
				res, err := RunLoopback(LoopbackConfig{
					Protocol: mustProtocol(t, proto),
					FIFO:     !faults.Reorder,
					Msgs:     500,
					Faults:   faults,
					Seed:     seed,
					Registry: reg,
					KeepLog:  true,
				})
				if res == nil {
					t.Fatalf("%s: %v", name, err)
				}
				g := loopbackGolden{
					Steps:          res.Steps,
					FramesSent:     res.FramesSent,
					DecodeErrors:   res.DecodeErrors,
					Verdicts:       res.Verdicts.String(),
					Violations:     len(res.Violations),
					DeliveredSHA:   digestStrings(len(res.Delivered), func(i int) string { return string(res.Delivered[i]) }),
					ScheduleSHA:    digestStrings(len(res.Log), func(i int) string { return res.Log[i].String() }),
					ScheduleLength: len(res.Log),
					Metrics:        map[string]int64{},
				}
				if err != nil {
					g.Err = err.Error()
				}
				snap := reg.Snapshot()
				for _, c := range snap.Counters {
					g.Metrics[c.Name] = c.Value
				}
				for _, gg := range snap.Gauges {
					g.Metrics[gg.Name] = gg.Value
				}
				got[name] = g
			}
		}
	}

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(loopbackGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(loopbackGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]loopbackGolden
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("golden file has %d cases, the test runs %d", len(want), len(cases))
	}
	for _, name := range cases {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from %s", name, loopbackGoldenPath)
			continue
		}
		if g := got[name]; !reflect.DeepEqual(g, w) {
			gj, _ := json.MarshalIndent(g, "", "  ")
			wj, _ := json.MarshalIndent(w, "", "  ")
			t.Errorf("%s: outcome differs from golden\ngot:\n%s\nwant:\n%s", name, gj, wj)
		}
	}
}

// digestStrings returns the hex SHA-256 of n strings, each followed by
// a newline.
func digestStrings(n int, at func(int) string) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		h.Write([]byte(at(i)))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
