package explore

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ioa"
)

// probe stands in for a protocol state and a monitor; the padding keeps
// it out of the tiny allocator, whose shared blocks would delay its
// finalizer.
type probe struct {
	id int
	_  [32]byte
}

func (p *probe) Fingerprint() string                   { return "" }
func (p *probe) Step(ioa.Action) (Monitor, *Violation) { return p, nil }

// fillBatch admits n successors of root's node 0 to b, each with its own
// state and monitor.
func fillBatch(b *arenaBatch, root *arenaLevel, n int) {
	for i := 0; i < n; i++ {
		b.add(root, 0, &succ{state: &probe{id: i}, monitor: &probe{id: i}, action: ioa.Wake(ioa.TR), usedIdx: i % 2})
	}
}

// TestBatchClearForReuse: a cleared batch keeps its capacity for the
// next level but no state, monitor or action in any slot of it.
func TestBatchClearForReuse(t *testing.T) {
	root := newRootLevel(1, 0, 2, 1)
	var b arenaBatch
	fillBatch(&b, root, 5)
	capStates := cap(b.states)
	b.clearForReuse()
	if b.size() != 0 || len(b.states) != 0 || len(b.monitors) != 0 || len(b.parents) != 0 || len(b.usedBits) != 0 {
		t.Fatalf("batch not emptied: %d actions, %d states, %d monitors, %d parents, %d used words",
			len(b.actions), len(b.states), len(b.monitors), len(b.parents), len(b.usedBits))
	}
	if cap(b.states) != capStates {
		t.Fatalf("cap(states) = %d, want the reused %d", cap(b.states), capStates)
	}
	for i, st := range b.states[:cap(b.states)] {
		if st != nil {
			t.Fatalf("state slot %d still holds a state after clearForReuse", i)
		}
	}
	for i, m := range b.monitors[:cap(b.monitors)] {
		if m != nil {
			t.Fatalf("monitor slot %d still holds a monitor after clearForReuse", i)
		}
	}
	for i, a := range b.actions[:cap(b.actions)] {
		if a != (ioa.Action{}) {
			t.Fatalf("action slot %d still holds %v after clearForReuse", i, a)
		}
	}
}

// TestAbsorbClearsBatch: absorbing a batch into a level moves every
// admission over in order — action, parent, state, monitor and used bits
// — and hands the batch back empty with its capacity scrubbed; a smaller
// next batch then leaves no stale node of the previous level behind.
func TestAbsorbClearsBatch(t *testing.T) {
	root := newRootLevel(1, 0, 2, 1)
	var b arenaBatch
	fillBatch(&b, root, 6)
	wide := nextArenaLevel(root)
	wide.absorb(&b)
	if wide.size() != 6 || len(wide.states) != 6 || len(wide.monitors) != 6 || len(wide.parents) != 6 {
		t.Fatalf("absorbed level has %d nodes, want 6 in every slab", wide.size())
	}
	for i := 0; i < 6; i++ {
		if wide.states[i].(*probe).id != i || wide.monitors[i].(*probe).id != i {
			t.Fatalf("node %d out of order after absorb", i)
		}
		if used := wide.unpackUsed(i, nil); used[i%2] != true || used[1-i%2] {
			t.Fatalf("node %d used bits = %v, want only bit %d", i, used, i%2)
		}
	}
	for i, st := range b.states[:cap(b.states)] {
		if st != nil {
			t.Fatalf("batch state slot %d survives absorb", i)
		}
	}

	fillBatch(&b, root, 2)
	narrow := nextArenaLevel(wide)
	narrow.absorb(&b)
	if narrow.size() != 2 {
		t.Fatalf("narrow level has %d nodes, want 2", narrow.size())
	}
	for i, st := range b.states[:cap(b.states)] {
		if st != nil {
			t.Fatalf("stale state in batch slot %d after the narrow absorb", i)
		}
	}
}

// TestFrontierSwapReleasesDeadNodes is the retained-heap probe for the
// level barrier: a wide level is built through a worker batch, then a
// narrow level through the same (reused) batch, and the wide level is
// retired. Every state and monitor of the wide level must then be
// collectable while the narrow level — whose trace skeleton reaches back
// through the retired one — and the batch stay reachable. It fails if
// arenaBatch.clearForReuse leaves states or monitors in its slack
// capacity, or if arenaLevel.retire keeps its state or monitor slab.
func TestFrontierSwapReleasesDeadNodes(t *testing.T) {
	const wide = 64
	var deadStates, deadMonitors atomic.Int64
	var batch arenaBatch

	root := newRootLevel(1, 0, 1, 1)
	wideLvl := nextArenaLevel(root)
	func() { // keep the probes out of this frame's live variables
		for i := 0; i < wide; i++ {
			st, mon := &probe{id: i}, &probe{id: i}
			runtime.SetFinalizer(st, func(*probe) { deadStates.Add(1) })
			runtime.SetFinalizer(mon, func(*probe) { deadMonitors.Add(1) })
			batch.add(root, 0, &succ{state: st, monitor: mon, action: ioa.Wake(ioa.TR), usedIdx: -1})
		}
	}()
	wideLvl.absorb(&batch)
	root.retire()

	live := &probe{id: -1}
	narrow := nextArenaLevel(wideLvl)
	batch.add(wideLvl, wide-1, &succ{state: live, monitor: live, action: ioa.Wake(ioa.RT), usedIdx: 0})
	narrow.absorb(&batch)
	wideLvl.retire()

	deadline := time.Now().Add(5 * time.Second)
	for (deadStates.Load() < wide || deadMonitors.Load() < wide) && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := deadStates.Load(); got != wide {
		t.Errorf("only %d/%d states of the retired wide level were collected", got, wide)
	}
	if got := deadMonitors.Load(); got != wide {
		t.Errorf("only %d/%d monitors of the retired wide level were collected", got, wide)
	}
	if narrow.size() != 1 || narrow.states[0] != live || narrow.monitors[0] != live {
		t.Fatal("narrow level lost its node")
	}
	if got := narrow.unpackUsed(0, nil); !got[0] {
		t.Error("narrow node lost its used bit")
	}
	want := ioa.Schedule{ioa.Wake(ioa.TR), ioa.Wake(ioa.RT)}
	if got := narrow.appendTraceOf(nil, 0); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("trace through the retired level = %v, want %v", got, want)
	}
	runtime.KeepAlive(narrow)
	runtime.KeepAlive(&batch)
}
