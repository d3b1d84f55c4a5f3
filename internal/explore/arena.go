package explore

import (
	"slices"

	"repro/internal/ioa"
)

// This file is the explorer's frontier layout. Each BFS level is one
// arenaLevel: a few large parallel slabs instead of one heap object per
// state, so a level of millions of states is a handful of allocations
// for the allocator and garbage collector to track.
//
// A live level holds states and monitors as interface slabs, the
// inputs-used bitmaps bit-packed into a single []uint64 at usedStride
// words per node, the incoming action per node, and the parent link as a
// 32-bit index into the previous level's slabs. The level's in-order
// commit accumulates admissions in one reused arenaBatch (no per-node
// allocation), which the barrier absorbs into the next level.
//
// Once a level has been fully expanded it is retired: the state, monitor
// and bitmap slabs are dropped and only the action + parent-index
// skeleton survives. A violation trace or a checkpoint schedule is
// reconstructed by replaying indices up the level chain, and dead
// branches cost nothing past their level. Two invariants keep this
// sound:
//
//   - Offsets: parents[i] of a level at depth d+1 indexes the level at
//     depth d, whose actions/parents slabs are never reordered or
//     truncated after the barrier that built it; so an index chain from
//     any live node always reaches a root.
//   - Retirement: a level is retired only after its successor level has
//     absorbed every batch, and a retired level's slabs are nil, not
//     merely truncated — the skeleton it keeps holds no state or monitor.
//     Batches clear their full capacity on reuse, so a narrow level never
//     pins a wider predecessor's states through slack slots.

// arenaLevel is one BFS level. A live level has all slabs populated; a
// retired level keeps only depth/prev/prefix/actions/parents — the trace
// skeleton.
type arenaLevel struct {
	depth  int
	inputs int // pool size, for unpacking used bitmaps
	prev   *arenaLevel
	// prefix is non-nil only on a resumed root level: the schedule that
	// reached each node, replacing the parent chain the checkpoint did
	// not persist.
	prefix []ioa.Schedule

	actions    []ioa.Action // incoming action per node (zero on a fresh root)
	parents    []uint32     // index into prev's slabs (nil on a root level)
	states     []ioa.State
	monitors   []Monitor
	usedBits   []uint64 // usedStride words per node, bit i = pool input i used
	usedStride int
}

func (a *arenaLevel) size() int { return len(a.actions) }

// newRootLevel builds a root level of n nodes with every slab but
// parents allocated (a root has no predecessor to point into).
func newRootLevel(n, depth, inputs, usedStride int) *arenaLevel {
	return &arenaLevel{
		depth:      depth,
		inputs:     inputs,
		usedStride: usedStride,
		actions:    make([]ioa.Action, n),
		states:     make([]ioa.State, n),
		monitors:   make([]Monitor, n),
		usedBits:   make([]uint64, n*usedStride),
	}
}

// nextArenaLevel starts the successor level of prev.
func nextArenaLevel(prev *arenaLevel) *arenaLevel {
	return &arenaLevel{
		depth:      prev.depth + 1,
		inputs:     prev.inputs,
		usedStride: prev.usedStride,
		prev:       prev,
	}
}

// packUsed bit-packs a used bitmap into words (len(words) must be the
// level's usedStride; words must be zeroed).
func packUsed(words []uint64, used []bool) {
	for i, u := range used {
		if u {
			words[i/64] |= 1 << (i % 64)
		}
	}
}

// unpackUsed expands node i's bitmap into dst (reusing its capacity).
func (a *arenaLevel) unpackUsed(i int, dst []bool) []bool {
	if cap(dst) < a.inputs {
		dst = make([]bool, a.inputs)
	}
	dst = dst[:a.inputs]
	words := a.usedBits[i*a.usedStride : (i+1)*a.usedStride]
	for j := range dst {
		dst[j] = words[j/64]&(1<<(j%64)) != 0
	}
	return dst
}

// appendTraceOf appends the schedule reaching node i to dst, walking the
// offset chain twice — once to find the root index and length, once to
// fill backwards — so bulk callers (checkpoint snapshots) can pack many
// schedules into one shared slice without per-node garbage.
func (a *arenaLevel) appendTraceOf(dst ioa.Schedule, i int) ioa.Schedule {
	steps, idx, lvl := 0, i, a
	for lvl.prev != nil {
		steps++
		idx = int(lvl.parents[idx])
		lvl = lvl.prev
	}
	if lvl.prefix != nil {
		dst = append(dst, lvl.prefix[idx]...)
	}
	start := len(dst)
	dst = slices.Grow(dst, steps)[:start+steps]
	k := start + steps - 1
	idx, lvl = i, a
	for lvl.prev != nil {
		dst[k] = lvl.actions[idx]
		k--
		idx = int(lvl.parents[idx])
		lvl = lvl.prev
	}
	return dst
}

// retire drops the slabs only a live frontier needs, leaving the trace
// skeleton. Retiring the level a violation was found in would lose
// nothing — traces use actions/parents, which survive.
func (a *arenaLevel) retire() {
	a.states = nil
	a.monitors = nil
	a.usedBits = nil
}

// absorb appends one worker's batch to the level and clears the batch
// for reuse.
func (a *arenaLevel) absorb(ab *arenaBatch) {
	a.actions = append(a.actions, ab.actions...)
	a.parents = append(a.parents, ab.parents...)
	a.states = append(a.states, ab.states...)
	a.monitors = append(a.monitors, ab.monitors...)
	a.usedBits = append(a.usedBits, ab.usedBits...)
	ab.clearForReuse()
}

// arenaBatch is one worker's private admission slab for the level under
// construction. The backing arrays persist across levels, so
// steady-state admission is slab appends, not per-node allocations.
type arenaBatch struct {
	actions  []ioa.Action
	parents  []uint32
	states   []ioa.State
	monitors []Monitor
	usedBits []uint64
}

func (ab *arenaBatch) size() int { return len(ab.actions) }

// add admits one successor: parent bitmap copied from the parent level
// with the injected input's bit set.
func (ab *arenaBatch) add(parent *arenaLevel, parentIdx int, sj *succ) {
	ab.actions = append(ab.actions, sj.action)
	ab.parents = append(ab.parents, uint32(parentIdx))
	ab.states = append(ab.states, sj.state)
	ab.monitors = append(ab.monitors, sj.monitor)
	stride := parent.usedStride
	base := len(ab.usedBits)
	ab.usedBits = append(ab.usedBits, parent.usedBits[parentIdx*stride:(parentIdx+1)*stride]...)
	if sj.usedIdx >= 0 {
		ab.usedBits[base+sj.usedIdx/64] |= 1 << (sj.usedIdx % 64)
	}
}

// clearForReuse empties the batch, nilling the pointer-bearing slots
// across the full capacity so a shrunken next level does not pin states
// and monitors in the slack.
func (ab *arenaBatch) clearForReuse() {
	clear(ab.actions[:cap(ab.actions)])
	ab.actions = ab.actions[:0]
	clear(ab.states[:cap(ab.states)])
	ab.states = ab.states[:0]
	clear(ab.monitors[:cap(ab.monitors)])
	ab.monitors = ab.monitors[:0]
	ab.parents = ab.parents[:0]
	ab.usedBits = ab.usedBits[:0]
}
