package explore

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// TestShardShiftDerivation pins the shard-selection arithmetic to the
// shard count: the shift used to be an independently hardcoded
// `sum >> (64-4)`, which would silently misroute every sum if seenShards
// changed. The derivation must agree with bits.Len and shardOf must land
// in range for sums across the whole 64-bit space.
func TestShardShiftDerivation(t *testing.T) {
	if got, want := seenShardBits, bits.Len(uint(seenShards-1)); got != want {
		t.Fatalf("seenShardBits = %d, want bits.Len(%d) = %d", got, seenShards-1, want)
	}
	if got, want := seenShardShift, uint(64-seenShardBits); got != want {
		t.Fatalf("seenShardShift = %d, want %d", got, want)
	}
	sums := []uint64{0, 1, 0xff, 1 << 32, 1<<63 - 1, 1 << 63, ^uint64(0)}
	// A deterministic sweep of the sum space: every shard must be hit and
	// no index may fall out of range.
	for i := 0; i < 1<<12; i++ {
		sums = append(sums, mix64(uint64(i)))
	}
	hit := make([]bool, seenShards)
	for _, sum := range sums {
		idx := shardOf(sum)
		if idx < 0 || idx >= seenShards {
			t.Fatalf("shardOf(%016x) = %d, out of [0,%d)", sum, idx, seenShards)
		}
		hit[idx] = true
		// The shard's documented range invariant: shard i holds exactly
		// the sums in [i<<shift, (i+1)<<shift).
		if lo := uint64(idx) << seenShardShift; sum < lo {
			t.Fatalf("shardOf(%016x) = %d but shard range starts at %016x", sum, idx, lo)
		}
	}
	for i, h := range hit {
		if !h {
			t.Errorf("shard %d never selected by the sweep", i)
		}
	}
}

// TestHash64NoPrefixAliasing pins the doc comment's claim: a key and any
// proper prefix of it, and a key and its zero-padded extension, never
// hash alike (the length and tail mixing exist for exactly this).
func TestHash64NoPrefixAliasing(t *testing.T) {
	seed := uint64(0xfeed_beef_1234_5678)
	prefix := func(key []byte, cut uint8) bool {
		if len(key) == 0 {
			return true
		}
		n := int(cut) % len(key) // proper prefix
		return hash64(seed, key) != hash64(seed, key[:n])
	}
	if err := quick.Check(prefix, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("prefix aliasing: %v", err)
	}
	zeroPad := func(key []byte, pad uint8) bool {
		padded := append(append([]byte(nil), key...), make([]byte, int(pad)+1)...)
		return hash64(seed, key) != hash64(seed, padded)
	}
	if err := quick.Check(zeroPad, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("zero-pad aliasing: %v", err)
	}
	// Seed independence: the same key under different seeds must not be
	// forced to the same hash (collision by coincidence is astronomically
	// unlikely for these fixed cases).
	if hash64(1, []byte("k")) == hash64(2, []byte("k")) {
		t.Error("seeds 1 and 2 collide on the same key")
	}
}

// TestHash64GoldenVectors pins the persisted (seed, key) → hash mapping.
// Checkpoints store the seed plus raw hash64 fingerprints; if this
// mapping ever changes, every existing checkpoint silently misresumes
// (old fingerprints stop matching re-hashed keys), so a change here must
// be a deliberate format break, not a refactoring accident.
func TestHash64GoldenVectors(t *testing.T) {
	vectors := []struct {
		seed uint64
		key  string
		want uint64
	}{
		{0, "", 0x0000000000000000},
		{0, "a", 0x788fdd762d725ed4},
		{0x9e3779b97f4a7c15, "", 0xe220a8397b1dcdaf},
		{0x9e3779b97f4a7c15, "abp|0|00", 0x4a9c89e1a1c0ae85},
		{0xdeadbeefcafebabe, "stenning∥residual|m|110", 0x5f69314d8ffa19ca},
		{42, "0123456789abcdef", 0xc60616e9a8d2cad3},      // exactly two 8-byte lanes
		{42, "0123456789abcdefg", 0x020bbcb0c56219ff},     // two lanes + 1-byte tail
		{1, string(make([]byte, 32)), 0x6a0045fc52609d2f}, // all-zero key, length mixed
	}
	for _, v := range vectors {
		if got := hash64(v.seed, []byte(v.key)); got != v.want {
			t.Errorf("hash64(%#x, %q) = %#016x, want %#016x", v.seed, v.key, got, v.want)
		}
	}
}

// TestHashesTrackedMatchesUntracked: run tracking is a pure
// representation change inside hashedSeen — the enumerated fingerprints
// (and hence checkpoint bytes) must be identical whether a barrier does
// the incremental tail merge or the full extract-and-sort, including
// across multiple interleaved barriers.
func TestHashesTrackedMatchesUntracked(t *testing.T) {
	const seed = 0x1234_5678_9abc_def0
	tracked := newHashedSeenSeeded(seed)
	tracked.trackRuns()
	untracked := newHashedSeenSeeded(seed)
	key := make([]byte, 0, 16)
	for round := 0; round < 4; round++ {
		for i := 0; i < 5000; i++ {
			key = fmt.Appendf(key[:0], "key-%d-%d", round, i%3777)
			a, b := tracked.Add(key), untracked.Add(key)
			if a != b {
				t.Fatalf("round %d key %q: tracked.Add=%t untracked.Add=%t", round, key, a, b)
			}
		}
		// A barrier per round: the tracked set merges its pending tail now,
		// the untracked one re-sorts from scratch; both must agree.
		got, want := tracked.hashes(), untracked.hashes()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: tracked hashes() diverges from untracked (%d vs %d sums)", round, len(got), len(want))
		}
		if tracked.Len() != untracked.Len() {
			t.Fatalf("round %d: Len %d vs %d", round, tracked.Len(), untracked.Len())
		}
	}
}

// TestMergeSortedInto exercises the in-place back-merge on edge shapes.
func TestMergeSortedInto(t *testing.T) {
	cases := []struct{ run, tail, want []uint64 }{
		{nil, []uint64{1, 3}, []uint64{1, 3}},
		{[]uint64{2}, nil, []uint64{2}},
		{[]uint64{1, 4, 9}, []uint64{2, 3, 10}, []uint64{1, 2, 3, 4, 9, 10}},
		{[]uint64{5, 6}, []uint64{1, 2}, []uint64{1, 2, 5, 6}},
		{[]uint64{1, 2}, []uint64{5, 6}, []uint64{1, 2, 5, 6}},
	}
	for _, c := range cases {
		got := mergeSortedInto(append([]uint64(nil), c.run...), c.tail)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("mergeSortedInto(%v, %v) = %v, want %v", c.run, c.tail, got, c.want)
		}
	}
}

// measureHeap reports the live-heap delta of build's allocations that
// survive (are retained by) its return value.
func measureHeap(t *testing.T, build func() any) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestApproxBytesCalibrationHashed is the calibration behind
// hashedEntryBytes: a million-entry hashed set's ApproxBytes must track
// the real retained heap measured by runtime.ReadMemStats. The old
// constant (16) under-reported by more than 2x — and SeenSetBytes is the
// figure capacity planning keys off, so the estimate
// staying inside a ±50% band of reality is a correctness property of the
// number, not cosmetics.
func TestApproxBytesCalibrationHashed(t *testing.T) {
	if testing.Short() {
		t.Skip("million-entry calibration is not a -short test")
	}
	const n = 1 << 20
	var set *hashedSeen
	measured := measureHeap(t, func() any {
		set = newHashedSeenSeeded(7)
		for i := 0; i < n; i++ {
			set.addSum(mix64(uint64(i)))
		}
		return set
	})
	approx := set.ApproxBytes()
	if set.Len() != n {
		t.Fatalf("Len = %d, want %d", set.Len(), n)
	}
	ratio := float64(approx) / float64(measured)
	t.Logf("hashed: measured %d B (%.1f B/entry), ApproxBytes %d B (%d B/entry), ratio %.2f",
		measured, float64(measured)/n, approx, approx/n, ratio)
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("ApproxBytes %d is off from measured %d by %.2fx (want within [0.5, 1.5]); recalibrate hashedEntryBytes", approx, measured, ratio)
	}
}

// TestApproxBytesCalibrationExact calibrates exactEntryOverhead the same
// way, with realistic fingerprint-key lengths.
func TestApproxBytesCalibrationExact(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk calibration is not a -short test")
	}
	const n = 1 << 18
	var set *exactSeen
	measured := measureHeap(t, func() any {
		set = newExactSeen()
		key := make([]byte, 0, 64)
		for i := 0; i < n; i++ {
			key = fmt.Appendf(key[:0], "s0∥pend:%d|mon:%d|1010", i, i%97)
			set.Add(key)
		}
		return set
	})
	approx := set.ApproxBytes()
	if set.Len() != n {
		t.Fatalf("Len = %d, want %d", set.Len(), n)
	}
	ratio := float64(approx) / float64(measured)
	t.Logf("exact: measured %d B (%.1f B/entry), ApproxBytes %d B (%d B/entry), ratio %.2f",
		measured, float64(measured)/n, approx, approx/n, ratio)
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("ApproxBytes %d is off from measured %d by %.2fx (want within [0.5, 1.5]); recalibrate exactEntryOverhead", approx, measured, ratio)
	}
}
