package explore

import "sync"

// exactSeen dedups on full key strings, immune to hash collisions at
// ~key-length bytes per state. It is the reference the hashed seen-set is
// checked against (TestHashedDedupMatchesExact); a search selects it
// through Config.newSeen (exactDedup below).
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

// exactDedup makes cfg's search dedup on full keys.
func exactDedup(cfg *Config) { cfg.newSeen = func() seenSet { return newExactSeen() } }
