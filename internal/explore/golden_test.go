package explore

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ioa"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/bfs_golden.json from the current explorer")

// goldenPath holds the pinned search outcomes TestBFSGolden compares
// against. Regenerate with `go test ./internal/explore -run TestBFSGolden
// -update` only when a change is meant to alter what the explorer
// reports, and review the diff.
const goldenPath = "testdata/bfs_golden.json"

// goldenCase is everything a search reports that must not depend on how
// the frontier is laid out in memory: the verdict and full trace, the
// counters, and the level-3 checkpoint cut. Checkpoint bytes are not
// pinned because the hash seed is random per search; the cut's level,
// counters, frontier schedules and seen-set size are seed-independent.
type goldenCase struct {
	Violation      string   `json:"violation,omitempty"`
	Trace          []string `json:"trace,omitempty"`
	StatesExplored int      `json:"states_explored"`
	DepthReached   int      `json:"depth_reached"`
	Exhausted      bool     `json:"exhausted"`

	CutLevel        int   `json:"cut_level"`
	CutDepthReached int   `json:"cut_depth_reached"`
	CutStates       int64 `json:"cut_states"`
	CutSeen         int   `json:"cut_seen"`
	CutNodes        int   `json:"cut_nodes"`
	// CutFrontier is the cut's frontier in frontier order, one schedule
	// per node. Left empty for multi-worker runs, whose frontier order
	// and duplicate representatives depend on goroutine timing.
	CutFrontier []string `json:"cut_frontier,omitempty"`
}

// goldenCutLevel is the level barrier at which each case's checkpoint
// cut is taken.
const goldenCutLevel = 3

// TestBFSGolden pins the explorer's observable output over the violating
// (ABP, receiver crash) and verifying (Go-Back-N over FIFO) searches,
// with and without symmetry reduction, sequentially and — for the
// verifying search, whose exhaustive counters are Workers-independent —
// with four workers. The por=false entries run the unreduced reference
// expansion; they must equal their por=true twins.
func TestBFSGolden(t *testing.T) {
	type search struct {
		name  string
		setup func(t *testing.T) (*core.System, Config)
	}
	var cases []string
	got := map[string]goldenCase{}
	run := func(s search, workers int, sym, por bool) {
		name := fmt.Sprintf("%s/w%d/sym=%t/por=%t", s.name, workers, sym, por)
		cases = append(cases, name)
		configure := func() (*core.System, Config) {
			sys, cfg := s.setup(t)
			cfg.Workers, cfg.Symmetry, cfg.unreduced = workers, sym, !por
			return sys, cfg
		}
		sys, cfg := configure()
		res, err := BFS(sys, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := goldenCase{
			Trace:          scheduleStrings(res.Trace),
			StatesExplored: res.StatesExplored,
			DepthReached:   res.DepthReached,
			Exhausted:      res.Exhausted,
		}
		if res.Violation != nil {
			g.Violation = res.Violation.String()
		}

		sys, cfg = configure()
		path := filepath.Join(t.TempDir(), "cut.ckpt")
		stopAtLevel(&cfg, goldenCutLevel, path)
		if _, err := BFS(sys, cfg); err != nil {
			t.Fatalf("%s: cut: %v", name, err)
		}
		ck, err := ReadCheckpoint(path)
		if err != nil {
			t.Fatalf("%s: cut: %v", name, err)
		}
		g.CutLevel, g.CutDepthReached, g.CutStates = ck.Level, ck.DepthReached, ck.States
		g.CutSeen, g.CutNodes = len(ck.SeenHashes), len(ck.Frontier)
		if workers == 1 {
			for _, sched := range ck.Frontier {
				g.CutFrontier = append(g.CutFrontier, strings.Join(scheduleStrings(sched), " · "))
			}
		}
		got[name] = g
	}
	for _, s := range []search{{"violating", crashSearch}, {"verifying", verifySearch}} {
		for _, sym := range []bool{false, true} {
			for _, por := range []bool{false, true} {
				run(s, 1, sym, por)
			}
		}
	}
	for _, sym := range []bool{false, true} {
		for _, por := range []bool{false, true} {
			run(search{"verifying", verifySearch}, 4, sym, por)
		}
	}

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]goldenCase
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("golden file has %d cases, the test runs %d", len(want), len(cases))
	}
	for _, name := range cases {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from %s", name, goldenPath)
			continue
		}
		if g := got[name]; !reflect.DeepEqual(g, w) {
			gj, _ := json.MarshalIndent(g, "", "  ")
			wj, _ := json.MarshalIndent(w, "", "  ")
			t.Errorf("%s: outcome differs from golden\ngot:\n%s\nwant:\n%s", name, gj, wj)
		}
	}
}

func scheduleStrings(s ioa.Schedule) []string {
	var out []string
	for _, a := range s {
		out = append(out, a.String())
	}
	return out
}
