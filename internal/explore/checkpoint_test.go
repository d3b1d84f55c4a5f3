package explore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ioa"
	"repro/internal/protocol"
)

// crashSearch is the cheap violating configuration (ABP over FIFO with a
// receiver crash finds DL4) used throughout the checkpoint tests.
func crashSearch(t *testing.T) (*core.System, Config) {
	t.Helper()
	sys, err := core.NewSystem(protocol.NewABP(), true)
	if err != nil {
		t.Fatal(err)
	}
	return sys, Config{
		Inputs:       pool(1, ioa.RT),
		Monitor:      NewSafetyMonitor(false),
		MaxDepth:     20,
		MaxInTransit: 2,
	}
}

// verifySearch is the violation-free configuration (Go-Back-N over FIFO
// exhausts its bounded space cleanly).
func verifySearch(t *testing.T) (*core.System, Config) {
	t.Helper()
	sys, err := core.NewSystem(protocol.NewGoBackN(2, 1), true)
	if err != nil {
		t.Fatal(err)
	}
	return sys, Config{
		Inputs:       pool(2),
		Monitor:      NewSafetyMonitor(true),
		MaxDepth:     22,
		MaxInTransit: 2,
	}
}

// stopAtLevel arms cfg to request a graceful stop after the k-th
// completed BFS level, checkpointing to path.
func stopAtLevel(cfg *Config, k int, path string) {
	stop := make(chan struct{})
	levels := 0
	prev := cfg.OnLevel
	cfg.OnLevel = func(st LevelStats) {
		if prev != nil {
			prev(st)
		}
		levels++
		if levels == k {
			close(stop)
		}
	}
	cfg.Stop = stop
	cfg.Checkpoint = CheckpointOptions{Path: path}
}

// requireEqualResults asserts two Results agree on everything except the
// Interrupted marker and SeenSetBytes.
func requireEqualResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	g, w := *got, *want
	g.Interrupted, w.Interrupted = false, false
	// SeenSetBytes reports the representation's real footprint, and a
	// checkpointing run legitimately holds more: it keeps sorted runs for
	// incremental barrier merges. Search-outcome equivalence is
	// everything else.
	g.SeenSetBytes, w.SeenSetBytes = 0, 0
	if !reflect.DeepEqual(g.Violation, w.Violation) {
		t.Errorf("%s: violation = %v, want %v", label, g.Violation, w.Violation)
	}
	if !reflect.DeepEqual(g.Trace, w.Trace) {
		t.Errorf("%s: trace differs:\ngot:\n%s\nwant:\n%s",
			label, ioa.FormatSchedule(g.Trace), ioa.FormatSchedule(w.Trace))
	}
	g.Violation, w.Violation = nil, nil
	g.Trace, w.Trace = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: result = %+v, want %+v", label, g, w)
	}
}

// TestDepthReachedMatchesTraceLength: regression for the violation-path
// off-by-one — the violating node lives one level below the frontier
// being expanded, so DepthReached must equal the trace length.
func TestDepthReachedMatchesTraceLength(t *testing.T) {
	sys, cfg := crashSearch(t)
	res, err := BFS(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("expected a violation")
	}
	if res.DepthReached != len(res.Trace) {
		t.Errorf("DepthReached = %d, want len(Trace) = %d", res.DepthReached, len(res.Trace))
	}
}

// TestDepthLimitedBoundaries: a search cut off at MaxDepth with frontier
// remaining reports DepthLimited (Exhausted stays true — it means
// exhausted within the bound); a search whose frontier empties before
// the bound reports DepthLimited=false.
func TestDepthLimitedBoundaries(t *testing.T) {
	sys, cfg := verifySearch(t)
	cfg.MaxDepth = 5
	res, err := BFS(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DepthLimited {
		t.Error("search cut at MaxDepth=5 with work remaining: DepthLimited = false")
	}
	if !res.Exhausted {
		t.Error("depth-limited but within budget: Exhausted should stay true (within-bound certificate)")
	}
	if res.DepthReached != 5 {
		t.Errorf("DepthReached = %d, want 5", res.DepthReached)
	}

	// A message-free pool quiesces in a couple of steps: the frontier
	// empties far below MaxDepth, so the bound was not binding.
	sys2, cfg2 := crashSearch(t)
	cfg2.Inputs = []ioa.Action{ioa.Wake(ioa.TR), ioa.Wake(ioa.RT)}
	cfg2.MaxDepth = DefaultMaxDepth
	res2, err := BFS(sys2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Violation != nil {
		t.Fatalf("unexpected violation: %s", res2.Violation)
	}
	if res2.DepthLimited {
		t.Errorf("frontier emptied at depth %d < MaxDepth: DepthLimited should be false", res2.DepthReached)
	}
	if !res2.Exhausted {
		t.Error("clean finite search: Exhausted = false")
	}
}

// TestCheckpointRoundTrip: Encode→Decode is the identity on the decoded
// form, in both dedup modes, including an empty frontier.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, c := range []*Checkpoint{
		{
			ConfigDigest: "00112233aabbccdd",
			Level:        2,
			DepthReached: 1,
			States:       12345,
			HashSeed:     0xdeadbeefcafef00d,
			Frontier: []ioa.Schedule{
				{ioa.Wake(ioa.TR), ioa.SendMsg(ioa.TR, "a")},
				{ioa.Wake(ioa.RT), ioa.Wake(ioa.TR)},
			},
			SeenHashes: []uint64{1, 2, 3, 1 << 63},
		},
		{
			ConfigDigest: "ffeeddccbbaa9988",
			Level:        3,
			DepthReached: 3,
			States:       9,
			Truncated:    true,
			Exact:        true,
			SeenKeys:     []string{"", "a∥b|m|01", string([]byte{0, 1, 2, 255})},
		},
		{ConfigDigest: "0", States: 1, HashSeed: 42, SeenHashes: []uint64{7}},
	} {
		var buf bytes.Buffer
		if err := EncodeCheckpoint(&buf, c); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode: %v\nfile:\n%s", err, buf.String())
		}
		// Normalise nil vs empty slices for the comparison.
		if len(got.Frontier) == 0 {
			got.Frontier, c.Frontier = nil, nil
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, c)
		}
	}
}

// TestCheckpointDecodeRejectsCorruption: targeted corruptions of a valid
// file — truncations, bit flips, tampered counters, trailing garbage —
// must all error (never silently misresume).
func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	err := EncodeCheckpoint(&buf, &Checkpoint{
		ConfigDigest: "00112233aabbccdd",
		Level:        1,
		DepthReached: 0,
		States:       4,
		HashSeed:     99,
		Frontier:     []ioa.Schedule{{ioa.Wake(ioa.TR)}, {ioa.Wake(ioa.RT)}},
		SeenHashes:   []uint64{10, 20, 30, 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := DecodeCheckpoint(bytes.NewReader(valid)); err != nil {
		t.Fatalf("control: valid file rejected: %v", err)
	}

	corrupt := func(name string, data []byte) {
		t.Helper()
		if _, err := DecodeCheckpoint(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !errors.Is(err, ErrCheckpointFormat) {
			t.Errorf("%s: error %v does not wrap ErrCheckpointFormat", name, err)
		}
	}
	corrupt("empty", nil)
	for _, cut := range []int{1, len(valid) / 3, len(valid) / 2, len(valid) - 2} {
		corrupt("truncated", valid[:cut])
	}
	for _, pos := range []int{10, len(valid) / 2, len(valid) - 5} {
		flipped := append([]byte(nil), valid...)
		flipped[pos] ^= 0x20
		corrupt("bit flip", flipped)
	}
	corrupt("trailing garbage", append(append([]byte(nil), valid...), "{\"x\":1}\n"...))
	tampered := bytes.Replace(append([]byte(nil), valid...), []byte(`"states":4`), []byte(`"states":5`), 1)
	corrupt("tampered header", tampered)
	corrupt("wrong version", bytes.Replace(append([]byte(nil), valid...), []byte(`"version":1`), []byte(`"version":9`), 1))
}

// TestCheckpointDecodeRejectsBadCut: the frontier is one BFS level, and
// resume places every restored node at the header's level. A file whose
// schedules disagree with that level, or whose level or depth is
// negative, is rejected even when its checksum is intact — otherwise it
// would silently shift the depth bound of the resumed search.
func TestCheckpointDecodeRejectsBadCut(t *testing.T) {
	w := ioa.Wake(ioa.TR)
	for _, tc := range []struct {
		name string
		c    Checkpoint
	}{
		{"short and long schedules", Checkpoint{Level: 2, Frontier: []ioa.Schedule{{w}, {w, w, w}}}},
		{"negative depth", Checkpoint{Level: 1, DepthReached: -5, Frontier: []ioa.Schedule{{w}}}},
		{"negative level", Checkpoint{Level: -1}},
		{"everything at once", Checkpoint{Level: 2, DepthReached: -5, Frontier: []ioa.Schedule{{w}, {w, w, w}}}},
	} {
		tc.c.ConfigDigest, tc.c.States, tc.c.HashSeed = "00112233aabbccdd", 3, 99
		var buf bytes.Buffer
		if err := EncodeCheckpoint(&buf, &tc.c); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCheckpointFormat) {
			t.Errorf("%s: err = %v, want ErrCheckpointFormat", tc.name, err)
		}
	}
}

// TestResumeEquivalenceEveryLevel is the kill/resume bit-equivalence
// test on the violating configuration: interrupt the search at every
// level barrier in turn, resume from the written checkpoint, and demand
// a Result identical to the uninterrupted run — including the violation
// trace (Workers=1 keeps frontier order deterministic).
func TestResumeEquivalenceEveryLevel(t *testing.T) {
	sys, base := crashSearch(t)
	want, err := BFS(sys, base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Violation == nil {
		t.Fatal("baseline found no violation")
	}
	dir := t.TempDir()
	for k := 1; ; k++ {
		path := filepath.Join(dir, "ck.jsonl")
		os.Remove(path)
		_, cfg := crashSearch(t)
		stopAtLevel(&cfg, k, path)
		partial, err := BFS(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !partial.Interrupted {
			// The stop fired at or after the level where the search ends on
			// its own; the run completed and must equal the baseline.
			requireEqualResults(t, "uninterrupted tail run", partial, want)
			break
		}
		ck, err := ReadCheckpoint(path)
		if err != nil {
			t.Fatalf("level %d: reading checkpoint: %v", k, err)
		}
		_, rcfg := crashSearch(t)
		rcfg.Resume = ck
		resumed, err := BFS(sys, rcfg)
		if err != nil {
			t.Fatalf("level %d: resume: %v", k, err)
		}
		requireEqualResults(t, "resumed after level "+string(rune('0'+k%10)), resumed, want)
	}
}

// TestResumeEquivalenceVerifyingRun: the same equivalence on a clean
// exhaustive search at a sample of interrupt levels, in both dedup
// modes, and resuming with a different worker count (the Result is
// Workers-independent).
func TestResumeEquivalenceVerifyingRun(t *testing.T) {
	for _, exact := range []bool{false, true} {
		sys, base := verifySearch(t)
		base.ExactDedup = exact
		want, err := BFS(sys, base)
		if err != nil {
			t.Fatal(err)
		}
		if want.Violation != nil || !want.Exhausted {
			t.Fatalf("baseline not a clean exhaustive run: %+v", want)
		}
		dir := t.TempDir()
		for _, k := range []int{1, 5, 11, 17} {
			path := filepath.Join(dir, "ck.jsonl")
			_, cfg := verifySearch(t)
			cfg.ExactDedup = exact
			stopAtLevel(&cfg, k, path)
			partial, err := BFS(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !partial.Interrupted {
				requireEqualResults(t, "uninterrupted tail run", partial, want)
				continue
			}
			if partial.Exhausted {
				t.Errorf("exact=%t level %d: interrupted run claims Exhausted", exact, k)
			}
			ck, err := ReadCheckpoint(path)
			if err != nil {
				t.Fatalf("exact=%t level %d: %v", exact, k, err)
			}
			_, rcfg := verifySearch(t)
			rcfg.ExactDedup = exact
			rcfg.Resume = ck
			rcfg.Workers = 2
			resumed, err := BFS(sys, rcfg)
			if err != nil {
				t.Fatalf("exact=%t level %d: resume: %v", exact, k, err)
			}
			requireEqualResults(t, "resumed verifying run", resumed, want)
		}
	}
}

// TestPeriodicCheckpointCadence: EveryLevels writes decodable snapshots
// as the search runs, without perturbing the Result.
func TestPeriodicCheckpointCadence(t *testing.T) {
	sys, base := verifySearch(t)
	want, err := BFS(sys, base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	_, cfg := verifySearch(t)
	cfg.Checkpoint = CheckpointOptions{Path: path, EveryLevels: 3}
	got, err := BFS(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "checkpointing run", got, want)
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("periodic checkpoint unreadable: %v", err)
	}
	// The last periodic snapshot is mid-search: resuming it must land on
	// the same final Result.
	_, rcfg := verifySearch(t)
	rcfg.Resume = ck
	resumed, err := BFS(sys, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "resumed from periodic checkpoint", resumed, want)
}

// TestResumeRejectsMismatchedConfig: a checkpoint resumed under a
// different search configuration must be refused, not silently blended.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	sys, cfg := crashSearch(t)
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	stopAtLevel(&cfg, 2, path)
	if _, err := BFS(sys, cfg); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Inputs = pool(2, ioa.RT) },
		func(c *Config) { c.MaxDepth = 19 },
		func(c *Config) { c.MaxInTransit = 3 },
		func(c *Config) { c.ExactDedup = true },
		func(c *Config) { c.Monitor = NewSafetyMonitor(true) },
	} {
		_, bad := crashSearch(t)
		mutate(&bad)
		bad.Resume = ck
		if _, err := BFS(sys, bad); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("mismatched resume: err = %v, want ErrCheckpointMismatch", err)
		}
	}
}

// FuzzCheckpointDecode: the decoder must never panic, anything it
// accepts must be a coherent level cut (non-negative level and depth,
// every schedule exactly level actions long), and it must re-encode and
// re-decode to the same checkpoint (no mutated state can slip through to
// a resume).
func FuzzCheckpointDecode(f *testing.F) {
	var valid bytes.Buffer
	if err := EncodeCheckpoint(&valid, &Checkpoint{
		ConfigDigest: "00112233aabbccdd",
		Level:        2,
		DepthReached: 1,
		States:       4,
		HashSeed:     99,
		Frontier:     []ioa.Schedule{{ioa.Wake(ioa.TR), ioa.SendMsg(ioa.TR, "a")}},
		SeenHashes:   []uint64{10, 20, 30},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	var badCut bytes.Buffer
	if err := EncodeCheckpoint(&badCut, &Checkpoint{
		ConfigDigest: "00112233aabbccdd",
		Level:        2,
		DepthReached: -5,
		States:       4,
		HashSeed:     99,
		Frontier:     []ioa.Schedule{{ioa.Wake(ioa.TR)}, {ioa.Wake(ioa.TR), ioa.Wake(ioa.RT), ioa.SendMsg(ioa.TR, "a")}},
		SeenHashes:   []uint64{10, 20, 30},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(badCut.Bytes())
	f.Add([]byte(`{"magic":"dl-explore-checkpoint","version":1}`))
	f.Add([]byte("{}\n"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if c.Level < 0 || c.DepthReached < 0 {
			t.Fatalf("accepted negative level %d or depth %d", c.Level, c.DepthReached)
		}
		for i, sched := range c.Frontier {
			if len(sched) != c.Level {
				t.Fatalf("accepted frontier node %d with %d actions at level %d", i, len(sched), c.Level)
			}
		}
		var re bytes.Buffer
		if err := EncodeCheckpoint(&re, c); err != nil {
			t.Fatalf("accepted checkpoint fails to re-encode: %v", err)
		}
		c2, err := DecodeCheckpoint(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint fails to decode: %v", err)
		}
		if len(c.Frontier) == 0 && len(c2.Frontier) == 0 {
			c.Frontier, c2.Frontier = nil, nil
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("re-encode not idempotent:\nfirst  %+v\nsecond %+v", c, c2)
		}
	})
}
