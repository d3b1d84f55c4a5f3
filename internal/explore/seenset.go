package explore

import (
	"crypto/rand"
	"encoding/binary"
	"math/bits"
	"sort"
	"sync"
)

// The explorer dedups up to millions of states. The hashed seen-set costs
// about 32 B per state (hashedEntryBytes), a few percent of a search's
// peak RSS: the frontier's states, not the seen-set, bound how large a
// search fits in memory (DESIGN.md §12). All implementations below are
// mutex-striped across seenShards shards chosen by the key's 64-bit hash,
// so concurrent workers rarely collide on a lock, and all accept
// transient []byte keys so callers can build keys in a reused buffer.
//
// hashedSeen stores only the 64-bit hash of each key (8 bytes per state
// plus map overhead, versus the full key string — typically hundreds of
// bytes — kept by exactSeen). Dedup by hash can, in principle, merge two
// distinct states on a hash collision; with a per-search random seed and
// n states the probability of any collision is about n²/2⁶⁵ (≈ 3·10⁻⁸ for
// the default 2²⁰-state budget), and a collision can only cause a missed
// state, never a false violation — traces are re-validated by the monitor
// on the path that reaches them. Config.ExactDedup selects exactSeen for
// collision-paranoid runs.
//
// The hash is a seeded multiply-xor mix (hash64 below) rather than
// hash/maphash: maphash's seed is deliberately opaque and cannot be
// persisted, but checkpoint files (checkpoint.go) must carry the seed and
// the admitted fingerprints so a resumed search maps every key to exactly
// the fingerprint the interrupted run did.

const seenShards = 16

// seenShardBits / seenShardShift are derived from seenShards so the
// shard-selection shift can never drift from the shard count (they used
// to be two independently hardcoded constants). The zero-length array
// pins seenShards to a power of two at compile time: a non-power-of-two
// count would make the dimension negative and refuse to compile.
var (
	_              [-(seenShards & (seenShards - 1))]struct{}
	seenShardBits  = bits.Len(uint(seenShards - 1))
	seenShardShift = uint(64 - seenShardBits)
)

// shardOf selects the shard for a 64-bit sum from its top bits. Because
// the selector is the value's MOST significant bits, shard i holds
// exactly the sums in [i<<seenShardShift, (i+1)<<seenShardShift): the
// shards partition the sum space into consecutive ascending ranges, so a
// globally sorted enumeration is the concatenation of per-shard sorted
// slices — the fact the incremental checkpoint path below relies on.
func shardOf(sum uint64) int { return int(sum >> seenShardShift) }

// seenSet is a concurrency-safe dedup set over transient byte-slice keys.
type seenSet interface {
	// Add inserts key, reporting whether it was absent; key is not retained.
	Add(key []byte) bool
	// Len returns the number of distinct keys added.
	Len() int
	// ApproxBytes estimates the heap bytes held per entry by the set.
	ApproxBytes() int64
	// ShardLens returns the per-shard entry counts: the occupancy figures
	// the observability layer exports, since shard skew is what would
	// turn the striped locks back into a contention point.
	ShardLens() []int
}

// randomSeed draws a fresh 64-bit hash seed. crypto/rand (not the global
// math/rand source the determinism analyzer forbids) never fails on
// supported platforms; the fixed fallback keeps the search usable — only
// collision resistance against pathological key sets, not correctness,
// depends on the seed being unpredictable.
func randomSeed() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0x9e3779b97f4a7c15
	}
	return binary.LittleEndian.Uint64(b[:])
}

// hash64 is the seeded 64-bit key hash shared by all seen-sets: 8-byte
// little-endian lanes folded through the splitmix64 finalizer, with the
// length and the tail mixed in so prefixes and zero-padded keys cannot
// alias. Unlike hash/maphash the (seed, key) → hash mapping is a pure
// function of its arguments, so it survives a checkpoint/restart; the
// golden vectors in seenset_test.go pin the mapping against silent
// change.
func hash64(seed uint64, key []byte) uint64 {
	h := seed ^ mix64(uint64(len(key)))
	for ; len(key) >= 8; key = key[8:] {
		h = mix64(h ^ binary.LittleEndian.Uint64(key))
	}
	if len(key) > 0 {
		var tail uint64
		for i := len(key) - 1; i >= 0; i-- {
			tail = tail<<8 | uint64(key[i])
		}
		h = mix64(h ^ tail)
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashedShard is one stripe of hashedSeen: the membership map plus — in
// checkpoint-tracking mode — the shard's sums maintained as a sorted run
// with an unsorted pending tail, so a barrier snapshot merges the small
// tail instead of re-sorting the whole set.
type hashedShard struct {
	mu sync.Mutex
	m  map[uint64]struct{}
	// sorted holds every sum merged at a previous hashes() call, in
	// ascending order; pending holds the sums admitted since, unsorted.
	// Both are nil unless the set was built with run tracking (the
	// checkpoint-enabled mode pays ~8 extra bytes per entry for barriers
	// that cost O(new) instead of O(n log n)).
	sorted  []uint64
	pending []uint64
	// pad the shard to its own cache line so neighbouring locks do not
	// false-share under contention.
	_ [16]byte
}

// hashedSeen dedups on 64-bit hash64 fingerprints.
type hashedSeen struct {
	seed   uint64
	track  bool
	shards [seenShards]hashedShard
}

func newHashedSeen() *hashedSeen { return newHashedSeenSeeded(randomSeed()) }

// newHashedSeenSeeded builds the set with an explicit hash seed: the
// restore path, where the checkpoint dictates the seed.
func newHashedSeenSeeded(seed uint64) *hashedSeen {
	h := &hashedSeen{seed: seed}
	for i := range h.shards {
		h.shards[i].m = make(map[uint64]struct{})
	}
	return h
}

// trackRuns switches on per-shard sorted-run maintenance. BFS enables it
// exactly when checkpointing is configured: hashes() is then called at
// every cadence barrier, and the incremental merge keeps that from being
// a full re-sort of the set each time.
func (h *hashedSeen) trackRuns() { h.track = true }

func (h *hashedSeen) Add(key []byte) bool {
	return h.addSum(hash64(h.seed, key))
}

// addSum inserts a precomputed fingerprint; the checkpoint restore path
// feeds persisted fingerprints straight back in.
func (h *hashedSeen) addSum(sum uint64) bool {
	sh := &h.shards[shardOf(sum)]
	sh.mu.Lock()
	_, dup := sh.m[sum]
	if !dup {
		sh.m[sum] = struct{}{}
		if h.track {
			sh.pending = append(sh.pending, sum)
		}
	}
	sh.mu.Unlock()
	return !dup
}

// hashSeed exposes the seed for checkpointing.
func (h *hashedSeen) hashSeed() uint64 { return h.seed }

// hashes returns every admitted fingerprint in ascending order. The set
// is order-independent, and sorting makes the checkpoint encoding
// byte-deterministic for a given search state.
//
// Because shardOf splits on the sums' top bits, the shards hold disjoint
// consecutive ranges, so the global ascending order is just the
// concatenation of the per-shard ascending slices. In tracking mode each
// shard sorts only its pending tail (the sums admitted since the last
// barrier) and back-merges it into the standing sorted run — O(new log
// new + n) per barrier against the old O(n log n) full re-sort that
// dominated checkpoint overhead. Untracked sets fall back to
// extract-and-sort per shard.
func (h *hashedSeen) hashes() []uint64 {
	out := make([]uint64, 0, h.Len())
	scratch := []uint64(nil)
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		if h.track {
			sh.mergePending()
			out = append(out, sh.sorted...)
		} else {
			scratch = scratch[:0]
			for sum := range sh.m {
				scratch = append(scratch, sum)
			}
			sort.Slice(scratch, func(a, b int) bool { return scratch[a] < scratch[b] })
			out = append(out, scratch...)
		}
		sh.mu.Unlock()
	}
	return out
}

// mergePending folds the shard's unsorted pending tail into its standing
// sorted run: sort the tail, then merge from the back in place. Caller
// holds the shard lock.
func (sh *hashedShard) mergePending() {
	if len(sh.pending) == 0 {
		return
	}
	sort.Slice(sh.pending, func(a, b int) bool { return sh.pending[a] < sh.pending[b] })
	sh.sorted = mergeSortedInto(sh.sorted, sh.pending)
	sh.pending = sh.pending[:0]
}

// mergeSortedInto merges ascending tail into ascending run in place
// (growing run), walking from the back so no element is overwritten
// before it is read. O(len(run)+len(tail)), allocation-free once run's
// capacity suffices.
func mergeSortedInto(run, tail []uint64) []uint64 {
	n, p := len(run), len(tail)
	run = append(run, tail...)
	i, k := n-1, n+p-1
	for j := p - 1; j >= 0; k-- {
		if i >= 0 && run[i] > tail[j] {
			run[k] = run[i]
			i--
		} else {
			run[k] = tail[j]
			j--
		}
	}
	return run
}

func (h *hashedSeen) Len() int {
	n := 0
	for i := range h.shards {
		h.shards[i].mu.Lock()
		n += len(h.shards[i].m)
		h.shards[i].mu.Unlock()
	}
	return n
}

func (h *hashedSeen) ShardLens() []int {
	out := make([]int, seenShards)
	for i := range h.shards {
		h.shards[i].mu.Lock()
		out[i] = len(h.shards[i].m)
		h.shards[i].mu.Unlock()
	}
	return out
}

// hashedEntryBytes estimates a map[uint64]struct{} entry as held by the
// runtime: the 8 key bytes plus control bytes, load-factor slack
// (occupancy ~7/8 of capacity at best, half that just after a growth)
// and growth-time table duplication, amortised. The figure is calibrated
// against runtime.ReadMemStats over a million-entry sharded set in
// seenset_test.go — the earlier guess of 16 under-reported real heap by
// more than 2x. At this figure the seen-set is about 3% of a
// million-state search's peak RSS; the frontier holds the rest.
const hashedEntryBytes = 32

func (h *hashedSeen) ApproxBytes() int64 {
	var b int64
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		b += int64(len(sh.m)) * hashedEntryBytes
		// Tracking mode additionally holds each sum in its sorted run.
		b += int64(cap(sh.sorted)+cap(sh.pending)) * 8
		sh.mu.Unlock()
	}
	return b
}

// exactSeen dedups on full key strings: the Config.ExactDedup escape
// hatch, immune to hash collisions at ~key-length bytes per state.
type exactSeen struct {
	seed   uint64
	shards [seenShards]struct {
		mu    sync.Mutex
		m     map[string]struct{}
		bytes int64
		_     [32]byte
	}
}

// exactEntryOverhead estimates the per-entry cost beyond the key bytes:
// the string header, the key allocation's size-class rounding, and the
// map's per-entry share of buckets and slack. Calibrated the same way as
// hashedEntryBytes (see seenset_test.go); the earlier guess of 48 was
// ~30% low.
const exactEntryOverhead = 64

func newExactSeen() *exactSeen {
	e := &exactSeen{seed: randomSeed()}
	for i := range e.shards {
		e.shards[i].m = make(map[string]struct{})
	}
	return e
}

func (e *exactSeen) Add(key []byte) bool {
	sum := hash64(e.seed, key)
	sh := &e.shards[shardOf(sum)]
	sh.mu.Lock()
	// The map lookup with a string(key) conversion does not allocate; the
	// key is only materialized when it is genuinely new.
	_, dup := sh.m[string(key)]
	if !dup {
		k := string(key)
		sh.m[k] = struct{}{}
		sh.bytes += int64(len(k)) + exactEntryOverhead
	}
	sh.mu.Unlock()
	return !dup
}

// keys returns every admitted key in ascending order — the exact-mode
// checkpoint payload (membership is by full key, so the shard seed need
// not be persisted).
func (e *exactSeen) keys() []string {
	out := make([]string, 0, e.Len())
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			out = append(out, k) // lint:ignore determinism set members; sorted below before any output
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

func (e *exactSeen) Len() int {
	n := 0
	for i := range e.shards {
		e.shards[i].mu.Lock()
		n += len(e.shards[i].m)
		e.shards[i].mu.Unlock()
	}
	return n
}

func (e *exactSeen) ShardLens() []int {
	out := make([]int, seenShards)
	for i := range e.shards {
		e.shards[i].mu.Lock()
		out[i] = len(e.shards[i].m)
		e.shards[i].mu.Unlock()
	}
	return out
}

func (e *exactSeen) ApproxBytes() int64 {
	var b int64
	for i := range e.shards {
		e.shards[i].mu.Lock()
		b += e.shards[i].bytes
		e.shards[i].mu.Unlock()
	}
	return b
}
