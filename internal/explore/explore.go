// Package explore is a bounded explicit-state model checker for composed
// data link systems: it enumerates every reachable state of D(A) under a
// chosen environment-input pool and scheduling nondeterminism, checking
// safety monitors on every path.
//
// It complements the adversary package: the adversaries *construct* the
// paper's counterexample executions from the proofs, while the explorer
// *searches* for violations exhaustively. For small instances the two
// agree — the explorer finds reordering counterexamples against
// bounded-header protocols over C̄ (Theorem 8.5's phenomenon) and finds
// crash counterexamples against crashing protocols over Ĉ (Theorem 7.5's
// phenomenon), and it verifies exhaustively that no safety violation is
// reachable for the positive configurations (Stenning over C̄, sliding
// windows over Ĉ) within the explored bound.
//
// The search is a level-synchronous parallel BFS: each depth level is a
// barrier, and within a level a pool of Config.Workers goroutines expands
// chunks of frontier nodes concurrently, building dedup keys into reused
// chunk buffers via the AppendFingerprint fast paths. The chunks are then
// committed in frontier order — deduplicated through the hashed seen-set
// (see seenset.go) and admitted exactly as a sequential scan would — so
// worker count changes only speed, never the Result or a checkpoint.
// Because levels are barriers, every node at depths below the first
// violating level is fully expanded before that level is entered, so a
// returned trace is a shortest violating schedule.
//
// Each frontier level is laid out as flat slabs with 32-bit parent
// offsets rather than one heap object per state (arena.go). The frontier,
// not the seen-set, dominates memory: at a million states the hashed
// seen-set holds about 32 B per state, under 3% of peak RSS.
package explore

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/ioa"
	"repro/internal/obs"
)

// Monitor is an online safety checker over data-link behaviors. Monitors
// must be value-like: Step returns a new monitor. The fingerprint
// contributes to state deduplication, so two search nodes are merged only
// when both the system state and the monitor state agree. Monitors may
// additionally implement ioa.AppendFingerprinter; the explorer then builds
// dedup keys without intermediate string allocations.
type Monitor interface {
	// Step observes one external action and returns the successor monitor
	// and a violation if the property just failed.
	Step(a ioa.Action) (Monitor, *Violation)
	// Fingerprint canonically encodes the monitor state.
	Fingerprint() string
}

// Violation reports a safety failure found during exploration.
type Violation struct {
	Property string
	Detail   string
}

func (v Violation) String() string { return v.Property + ": " + v.Detail }

// Config parameterises a search.
type Config struct {
	// Inputs is the pool of environment inputs; each may be injected once,
	// in pool order relative to its duplicates but freely interleaved with
	// everything else. A typical pool is wake, wake, then a few send_msg
	// and crash events.
	Inputs []ioa.Action
	// Monitor is the safety property to check (required).
	Monitor Monitor
	// MaxDepth bounds the path length (0 means DefaultMaxDepth).
	MaxDepth int
	// MaxStates bounds the number of distinct explored nodes (0 means
	// DefaultMaxStates); exceeding it stops the search with Exhausted=false.
	MaxStates int
	// MaxInTransit, when positive, prunes locally-controlled send_pkt
	// actions that would exceed this many undelivered packets per channel.
	// Pruning restricts the explored subspace (found violations remain
	// real), but keeps retransmission-based protocols finite-state.
	MaxInTransit int
	// AllowLoss explores internal lose actions of lossy channels.
	AllowLoss bool
	// Workers is the number of goroutines expanding each BFS level; 0 or 1
	// runs sequentially. It is a pure performance knob: successors are
	// committed in frontier order, so the Result and every checkpoint are
	// identical for any worker count.
	Workers int
	// Symmetry enables symmetry reduction: dedup keys canonicalise payload
	// tokens and packet IDs to first-use order, and the inputs-used bitmap
	// collapses to per-class counts, so states differing only by a
	// bijective payload/ID renaming merge. Effective only when the
	// protocol claims Props.PayloadOpaque and the pool's send_msg tokens
	// are pairwise distinct per direction (both checked at BFS start;
	// otherwise the flag is ignored and the search runs unreduced). See
	// reduction.go for the soundness argument.
	Symmetry bool
	// Metrics, when non-nil, receives the explorer's counters, gauges
	// and histograms (see obs.go for the name inventory). Nil disables
	// metrics at zero hot-path cost.
	Metrics *obs.Registry
	// Trace, when non-nil, receives structured events: one per BFS
	// level, plus seen-set occupancy, the violation (schedule embedded)
	// and a final summary.
	Trace *obs.Trace
	// OnLevel, when non-nil, is called after every completed BFS level —
	// the hook progress reporters hang off for long searches.
	OnLevel func(LevelStats)
	// Checkpoint configures periodic durable snapshots of the search,
	// written at level barriers (see checkpoint.go). The zero value
	// disables checkpointing.
	Checkpoint CheckpointOptions
	// Resume, when non-nil, restores the search from a decoded checkpoint
	// instead of the start state. The rest of the Config must describe the
	// same search the checkpoint was taken under (validated by digest);
	// Workers may differ — it is a performance knob, not a search
	// parameter. Resuming and running to the end yields the same Result
	// the uninterrupted run would have produced.
	Resume *Checkpoint
	// Stop, when non-nil, requests a graceful stop: once the channel is
	// closed the search finishes the in-flight level, writes a final
	// checkpoint (when Checkpoint is configured), sets Result.Interrupted
	// and returns. Checked only at level barriers, so a stopped search is
	// always resumable from a complete cut.
	Stop <-chan struct{}

	// The two fields below select reference implementations that the
	// package's tests compare the search against; nothing else sets them.
	//
	// unreduced expands every interleaving instead of applying
	// partial-order reduction (see reduction.go).
	unreduced bool
	// newSeen, when non-nil, builds the dedup set in place of the 64-bit
	// hashed seen-set. Checkpoints cannot snapshot such a set.
	newSeen func() seenSet
}

// Default search bounds.
const (
	DefaultMaxDepth  = 40
	DefaultMaxStates = 1 << 20
)

// Result reports a search outcome.
type Result struct {
	// Violation is nil if no safety failure was found.
	Violation *Violation
	// Trace is a schedule reaching the violation (inputs included), nil
	// when Violation is nil.
	Trace ioa.Schedule
	// StatesExplored counts distinct (state, monitor, inputs-used) nodes.
	StatesExplored int
	// Exhausted reports that the entire bounded space was covered: no node
	// was dropped for exceeding MaxStates and the search was not
	// interrupted. "Exhausted" always means exhausted *within* MaxDepth —
	// check DepthLimited to see whether the depth bound was the binding
	// constraint. Together with Violation == nil it is a bounded
	// verification certificate.
	Exhausted bool
	// DepthLimited reports that the search stopped at MaxDepth with
	// unexpanded frontier nodes remaining: states beyond the depth bound
	// exist but were not explored, so the Exhausted certificate is
	// conditional on the bound.
	DepthLimited bool
	// Interrupted reports that the search stopped early at a level
	// barrier because Config.Stop was closed; Exhausted is then false and
	// the partial counters reflect the completed levels only.
	Interrupted bool
	// DepthReached is the longest path explored.
	DepthReached int
	// SeenSetBytes approximates the heap held by the dedup set: the
	// memory-per-state figure the hashed seen-set exists to shrink.
	SeenSetBytes int64
}

// ErrNoMonitor is returned when Config.Monitor is nil.
var ErrNoMonitor = errors.New("explore: config needs a monitor")

// search carries the per-run state shared by the level workers.
type search struct {
	sys    *core.System
	cfg    Config
	extSig ioa.Signature
	// comps caches Comp.Components() (which copies per call), and chans
	// caches the channel down-casts, so the per-state dedup loop does no
	// repeated interface work.
	comps []ioa.Automaton
	chans []*channel.Channel
	// dupOf[i] is the index of the previous pool input equal to Inputs[i],
	// or -1: the "first unused instance per distinct action" rule walks
	// this chain instead of building a per-node map.
	dupOf []int

	maxDepth  int
	maxStates int64
	digest    string // configuration digest binding checkpoints to this search
	seen      seenSet
	count     atomic.Int64 // distinct states admitted (start included)
	truncated atomic.Bool  // a fresh state was dropped for budget

	// usedStride is the bit-packed used-bitmap width in words.
	usedStride int

	// Reduction state (see reduction.go). sym is the EFFECTIVE symmetry
	// switch: Config.Symmetry gated on the protocol's PayloadOpaque claim
	// and on pairwise-distinct send_msg pool tokens. classOf collapses the
	// inputs-used bitmap: pool entries in the same class are
	// interchangeable under payload renaming, so only per-class counts
	// enter the canonical dedup key.
	sym        bool
	classOf    []int
	numClasses int
	// chanByDir and chanLose classify invisible channel actions for POR:
	// component index of the channel a delivery (by direction) or a loss
	// (by internal action name) belongs to.
	chanByDir map[ioa.Dir]int
	chanLose  map[string]int
	// Per-level reduction tallies, swapped out at each level barrier into
	// the obs counters and the explore.level trace event.
	levelRenames atomic.Int64
	levelPruned  atomic.Int64

	// ins holds the resolved observability handles (all nil when
	// Config.Metrics is nil — the zero-cost disabled mode); began is the
	// search start time for trace timestamps and progress rates.
	ins   instruments
	began time.Time

	// chunks recycles expandLevel's chunk buffers across levels.
	chunks []*chunk
}

// succ is one successor produced by expand: a value, not a node. Only
// successors that survive dedup become slab rows of the next level (see
// arenaBatch.add), so the expansion hot path allocates no per-successor
// objects.
type succ struct {
	state   ioa.State
	monitor Monitor
	action  ioa.Action
	// usedIdx is the pool input injected by action, or -1; the successor's
	// used bitmap is the parent's with this bit set, materialised only on
	// admission.
	usedIdx   int
	violation *Violation
}

// workerBufs is one worker's reused scratch: the used-bitmap unpack
// buffer and the canonicalisation state its dedup keys are built with.
// All persist across levels.
type workerBufs struct {
	usedView []bool
	// canon is the worker's token-canonicalisation table (nil unless
	// symmetry reduction is active); classCnt is its per-class used-count
	// scratch. Both are reused across every key the worker builds.
	canon    *ioa.Canon
	classCnt []int
}

// foundViolation is the first violation a level's in-order commit meets:
// the one a sequential scan finds first, for any worker count. The trace
// is reconstructed at the barrier as the schedule of the parent at
// frontIdx plus the violating action.
type foundViolation struct {
	violation *Violation
	action    ioa.Action
	frontIdx  int
}

// BFS explores the system breadth-first from its start state. The returned
// trace (if any) is a shortest violating schedule within the explored
// space.
func BFS(sys *core.System, cfg Config) (*Result, error) {
	if cfg.Monitor == nil {
		return nil, ErrNoMonitor
	}
	s := &search{
		sys:      sys,
		cfg:      cfg,
		extSig:   sys.Hidden.Signature(),
		comps:    sys.Comp.Components(),
		maxDepth: cfg.MaxDepth,
	}
	if s.maxDepth <= 0 {
		s.maxDepth = DefaultMaxDepth
	}
	s.maxStates = int64(cfg.MaxStates)
	if s.maxStates <= 0 {
		s.maxStates = DefaultMaxStates
	}
	s.usedStride = (len(cfg.Inputs) + 63) / 64
	if cfg.newSeen != nil {
		s.seen = cfg.newSeen()
	} else {
		h := newHashedSeen()
		if cfg.Checkpoint.enabled() {
			// Checkpoints call hashes() at every cadence barrier; run
			// tracking turns each call into an incremental tail merge
			// instead of a full re-sort of the set.
			h.trackRuns()
		}
		s.seen = h
	}
	s.chans = make([]*channel.Channel, len(s.comps))
	for i, comp := range s.comps {
		if ch, ok := comp.(*channel.Channel); ok {
			s.chans[i] = ch
		}
	}
	s.dupOf = make([]int, len(cfg.Inputs))
	for i := range cfg.Inputs {
		s.dupOf[i] = -1
		for j := i - 1; j >= 0; j-- {
			if cfg.Inputs[j] == cfg.Inputs[i] {
				s.dupOf[i] = j
				break
			}
		}
	}
	s.setupReductions()

	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	bufs := make([]workerBufs, workers)
	if s.sym {
		for w := range bufs {
			bufs[w].canon = ioa.NewCanon()
		}
	}
	s.ins = newInstruments(cfg.Metrics, workers)
	s.began = time.Now() // lint:ignore determinism trace-only timestamp; never reaches Result

	startState := sys.Comp.Start()
	digest, err := s.configDigest(startState, cfg.Monitor)
	if err != nil {
		return nil, err
	}
	s.digest = digest

	res := &Result{Exhausted: true}
	var cur *arenaLevel
	if cfg.Resume != nil {
		cur, err = s.restore(cfg.Resume)
		if err != nil {
			return nil, err
		}
		res.DepthReached = cfg.Resume.DepthReached
	} else {
		cur = newRootLevel(1, 0, len(cfg.Inputs), s.usedStride)
		cur.states[0], cur.monitors[0] = startState, cfg.Monitor
		key, err := s.appendDedupKey(nil, startState, cfg.Monitor, make([]bool, len(cfg.Inputs)), -1, &bufs[0])
		if err != nil {
			return nil, err
		}
		s.seen.Add(key)
		s.count.Store(1)
	}
	ck := newCheckpointer(s, cfg.Checkpoint)
	var batch arenaBatch // the next level's admissions, reused across levels
	for cur.size() > 0 {
		depth := cur.depth
		res.DepthReached = depth
		if depth >= s.maxDepth {
			res.DepthLimited = true
			break
		}
		found, err := s.expandLevel(cur, &batch, bufs, workers)
		if err != nil {
			return nil, err
		}
		s.observeLevel(depth, cur.size(), batch.size())
		if found != nil {
			res.Violation = found.violation
			res.Trace = append(cur.appendTraceOf(nil, found.frontIdx), found.action)
			// The violating node sits one level below the frontier being
			// expanded; recording the frontier depth under-reported by one
			// and disagreed with len(res.Trace).
			res.DepthReached = depth + 1
			break
		}
		next := nextArenaLevel(cur)
		next.absorb(&batch)
		cur.retire()
		cur = next
		// Level barrier: the frontier is a complete cut of the search, so
		// this is the one place a checkpoint is coherent and a stop is
		// resumable. A graceful stop forces a final checkpoint write.
		if stopRequested(cfg.Stop) {
			res.Interrupted = true
			if err := ck.maybeWrite(cur, res.DepthReached, true); err != nil {
				return nil, err
			}
			break
		}
		if err := ck.maybeWrite(cur, res.DepthReached, false); err != nil {
			return nil, err
		}
	}
	res.StatesExplored = int(min(s.count.Load(), s.maxStates))
	res.Exhausted = res.Exhausted && !s.truncated.Load() && !res.Interrupted
	res.SeenSetBytes = s.seen.ApproxBytes()
	s.observeDone(res)
	return res, nil
}

// stopRequested polls a graceful-stop channel without blocking.
func stopRequested(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// levelBatch is how many frontier nodes make one chunk: the unit a worker
// claims, expands and hands to the in-order commit. Large enough to
// amortise the hand-off, small enough to balance skewed expansion costs.
const levelBatch = 32

// commitWindow bounds, per worker, how many chunks may sit expanded but
// uncommitted, so one slow chunk cannot make the others buffer a whole
// level's successors.
const commitWindow = 4

// chunk is one expanded run of levelBatch frontier nodes awaiting its
// commit: every successor in serial (node, successor) order with its
// parent index and dedup key, cut after the first violation. Chunks are
// recycled across levels, so steady-state expansion allocates nothing per
// successor.
type chunk struct {
	succs   []succ
	parents []uint32 // frontier index of succs[k]'s parent
	// keys[keyEnds[k-1]:keyEnds[k]] is succs[k]'s dedup key (empty for a
	// violating successor, which is never deduplicated). keyEnds may be
	// shorter than succs when expansion failed.
	keyEnds []int
	keys    []byte
	err     error
}

// reset empties the chunk for reuse, dropping its state and monitor
// references so a recycled chunk pins nothing.
func (ch *chunk) reset() {
	clear(ch.succs)
	ch.succs = ch.succs[:0]
	ch.parents = ch.parents[:0]
	ch.keyEnds = ch.keyEnds[:0]
	ch.keys = ch.keys[:0]
	ch.err = nil
}

// expandLevel expands one BFS level with the configured worker pool,
// admitting fresh successors to next. Workers claim chunks of frontier
// indices in order and expand them concurrently — successor states,
// monitor steps and dedup keys are the parallel share of the work — but
// chunks are committed strictly in frontier order: seen-set probes, the
// state count, the MaxStates budget, admission and the violation check
// all run as a sequential scan would. The next level's order, its
// duplicate representatives, the reported violation and StatesExplored
// are therefore identical for every worker count. Whichever worker
// publishes the next chunk in line commits it (and any already waiting
// behind it); the first violation or error in commit order halts the
// level.
func (s *search) expandLevel(lvl *arenaLevel, next *arenaBatch, bufs []workerBufs, workers int) (*foundViolation, error) {
	size := lvl.size()
	if size > math.MaxUint32 {
		return nil, fmt.Errorf("explore: level of %d nodes overflows 32-bit arena offsets", size)
	}
	nchunks := (size + levelBatch - 1) / levelBatch
	workers = max(1, min(workers, nchunks))

	var (
		claimed atomic.Int64
		// mu guards everything below; advanced signals a commit.
		mu         sync.Mutex
		advanced   = sync.NewCond(&mu)
		ready      = make([]*chunk, nchunks) // expanded, awaiting commit
		committed  int                       // chunks committed so far
		committing bool                      // a worker is running commits
		last       = nchunks - 1             // no chunk past a violating one is needed
		halted     bool
		best       *foundViolation
		firstErr   error
	)
	work := func(w int) {
		for {
			c := int(claimed.Add(1)) - 1
			mu.Lock()
			for !halted && c <= last && c >= committed+commitWindow*workers {
				advanced.Wait()
			}
			if halted || c > last {
				mu.Unlock()
				return
			}
			ch := s.takeChunk()
			mu.Unlock()

			s.expandChunk(lvl, c, ch, &bufs[w], w)

			mu.Lock()
			ready[c] = ch
			if ch.err == nil && len(ch.succs) > 0 && ch.succs[len(ch.succs)-1].violation != nil {
				last = min(last, c)
			}
			if committing {
				mu.Unlock()
				continue
			}
			committing = true
			for !halted && committed < nchunks && ready[committed] != nil {
				r := ready[committed]
				ready[committed] = nil
				mu.Unlock()
				fv, err := s.commitChunk(lvl, r, next)
				mu.Lock()
				r.reset()
				s.chunks = append(s.chunks, r)
				committed++
				if fv != nil || err != nil {
					best, firstErr, halted = fv, err, true
				}
				advanced.Broadcast()
			}
			committing = false
			mu.Unlock()
		}
	}

	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}
	return best, firstErr
}

// takeChunk pops a recycled chunk or makes one (caller holds the level's
// commit lock).
func (s *search) takeChunk() *chunk {
	if n := len(s.chunks); n > 0 {
		ch := s.chunks[n-1]
		s.chunks = s.chunks[:n-1]
		return ch
	}
	return new(chunk)
}

// expandChunk is the parallel half of a level: it expands frontier nodes
// [c*levelBatch, (c+1)*levelBatch) into ch, building each successor's
// dedup key, and stops after the first violating successor — a
// sequential scan never looks past it.
func (s *search) expandChunk(lvl *arenaLevel, c int, ch *chunk, b *workerBufs, w int) {
	end := min((c+1)*levelBatch, lvl.size())
	for i := c * levelBatch; i < end; i++ {
		b.usedView = lvl.unpackUsed(i, b.usedView)
		from := len(ch.succs)
		var err error
		ch.succs, err = s.expand(lvl, i, b.usedView, ch.succs)
		if err != nil {
			ch.err = err
			return
		}
		s.ins.workers[w].Inc()
		s.ins.expanded.Inc()
		s.ins.fanout.Observe(int64(len(ch.succs) - from))
		for j := from; j < len(ch.succs); j++ {
			sj := &ch.succs[j]
			ch.parents = append(ch.parents, uint32(i))
			if sj.violation != nil {
				ch.keyEnds = append(ch.keyEnds, len(ch.keys))
				clear(ch.succs[j+1:])
				ch.succs = ch.succs[:j+1]
				return
			}
			var renames0 int64
			if b.canon != nil {
				renames0 = b.canon.Assigned()
			}
			ch.keys, err = s.appendDedupKey(ch.keys, sj.state, sj.monitor, b.usedView, sj.usedIdx, b)
			if err != nil {
				ch.err = err
				return
			}
			if b.canon != nil {
				s.levelRenames.Add(b.canon.Assigned() - renames0)
			}
			ch.keyEnds = append(ch.keyEnds, len(ch.keys))
		}
	}
}

// commitChunk is the sequential half of a level: in (node, successor)
// order it stops at a violation, probes the seen-set, charges the state
// budget and admits fresh successors to next.
func (s *search) commitChunk(lvl *arenaLevel, ch *chunk, next *arenaBatch) (*foundViolation, error) {
	start := 0
	for k, end := range ch.keyEnds {
		sj := &ch.succs[k]
		if sj.violation != nil {
			return &foundViolation{violation: sj.violation, action: sj.action, frontIdx: int(ch.parents[k])}, nil
		}
		key := ch.keys[start:end]
		start = end
		if !s.seen.Add(key) {
			s.ins.dedupHit.Inc()
			continue
		}
		s.ins.dedupMiss.Inc()
		if s.count.Add(1) > s.maxStates {
			s.truncated.Store(true)
			continue
		}
		s.ins.admitted.Inc()
		next.add(lvl, int(ch.parents[k]), sj)
	}
	return nil, ch.err
}

// appendDedupKey appends the key identifying nodes with indistinguishable
// futures: the protocol automata contribute their exact state, the
// channels only their residual (deliverable packets — delivered, lost and
// FIFO-blocked entries can never matter again, and packet IDs are analysis
// labels), plus the monitor state and the set of remaining inputs (the
// parent's used bitmap with extraIdx set, passed unmaterialised so dedup
// probes copy nothing). Merging on this key is sound because the monitor
// never inspects packet identities. The key is built through the
// AppendFingerprint fast paths into the caller's reused buffer; per
// explored state the dedup path allocates nothing beyond amortised buffer
// growth.
//
// When symmetry reduction is active (b != nil with a canon), the key is
// built through the canonical fingerprint paths instead: payload tokens
// and packet IDs become first-use indices shared across all components,
// and the inputs-used bitmap collapses to per-class counts. Equal
// canonical keys then certify a bijective token renaming between the two
// nodes — an automorphism for payload-opaque protocols — so the merge
// stays sound (see reduction.go). b == nil always takes the raw path.
func (s *search) appendDedupKey(dst []byte, state ioa.State, monitor Monitor, used []bool, extraIdx int, b *workerBufs) ([]byte, error) {
	cs, ok := state.(ioa.CompositeState)
	if !ok {
		return nil, fmt.Errorf("%w: want CompositeState, got %T", ioa.ErrBadState, state)
	}
	var canon *ioa.Canon
	if b != nil {
		canon = b.canon
	}
	if canon != nil {
		canon.Reset()
	}
	for i := range s.comps {
		if i > 0 {
			dst = append(dst, "∥"...)
		}
		if ch := s.chans[i]; ch != nil {
			var err error
			if canon != nil {
				dst, err = ch.AppendResidualCanon(dst, cs.Parts[i], canon)
			} else {
				dst, err = ch.AppendResidual(dst, cs.Parts[i])
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		if canon != nil {
			dst = ioa.AppendCanonFingerprint(dst, cs.Parts[i], canon)
		} else {
			dst = ioa.AppendFingerprint(dst, cs.Parts[i])
		}
	}
	dst = append(dst, '|')
	if cf, ok := monitor.(ioa.CanonFingerprinter); ok && canon != nil {
		dst = cf.AppendCanonFingerprint(dst, canon)
	} else if af, ok := monitor.(ioa.AppendFingerprinter); ok {
		dst = af.AppendFingerprint(dst)
	} else {
		dst = append(dst, monitor.Fingerprint()...)
	}
	dst = append(dst, '|')
	if canon != nil {
		dst = s.appendUsedClassCounts(dst, used, extraIdx, b)
		return dst, nil
	}
	for i, u := range used {
		if u || i == extraIdx {
			dst = append(dst, '1')
		} else {
			dst = append(dst, '0')
		}
	}
	return dst, nil
}

// expand appends all successors of node n of lvl to out: every eligible
// pool input (the first unused instance of each distinct action) and
// every eligible enabled locally-controlled action. used is the node's
// unpacked inputs-used bitmap. Successors are values; out's backing array
// is the caller's reused chunk buffer, and no node or bitmap is
// materialised here — that happens on admission.
//
// Packet IDs are assigned canonically as the per-channel send index
// ((PL2)'s uniqueness is per channel direction): structurally identical
// states then have identical fingerprints regardless of the path taken,
// which is what makes state deduplication effective — and sound, since
// the IDs carry no information a protocol may use.
func (s *search) expand(lvl *arenaLevel, n int, used []bool, out []succ) ([]succ, error) {
	state, monitor, incoming := lvl.states[n], lvl.monitors[n], lvl.actions[n]
	enabled := s.sys.Comp.Enabled(state)
	out = slices.Grow(out, len(s.cfg.Inputs)+len(enabled))
	apply := func(a ioa.Action, usedIdx int) error {
		if a.Kind == ioa.KindSendPkt && a.Pkt.ID == 0 {
			cs, err := s.sys.ChannelState(state, a.Dir)
			if err != nil {
				return err
			}
			a.Pkt.ID = uint64(cs.SentCount() + 1)
		}
		st, err := s.sys.Comp.Step(state, a)
		if err != nil {
			return fmt.Errorf("explore: applying %s: %w", a, err)
		}
		mon := monitor
		var viol *Violation
		if s.extSig.ContainsExternal(a) {
			mon, viol = mon.Step(a)
		}
		out = append(out, succ{state: st, monitor: mon, action: a, usedIdx: usedIdx, violation: viol})
		return nil
	}

	// Environment inputs: one successor per distinct unused pool action.
	// Pool index i is eligible when it is the first unused instance of its
	// action, i.e. every earlier duplicate (the dupOf chain) is used.
	for i, in := range s.cfg.Inputs {
		if used[i] {
			continue
		}
		eligible := true
		for j := s.dupOf[i]; j >= 0; j = s.dupOf[j] {
			if !used[j] {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
		if err := apply(in, i); err != nil {
			return out, err
		}
	}

	// Locally-controlled actions.
	pruned := int64(0)
	for _, a := range enabled {
		if channel.IsLoseAction(a) && !s.cfg.AllowLoss {
			continue
		}
		if s.cfg.MaxInTransit > 0 && a.Kind == ioa.KindSendPkt {
			cs, err := s.sys.ChannelState(state, a.Dir)
			if err != nil {
				return out, err
			}
			if cs.PendingCount() >= s.cfg.MaxInTransit {
				continue
			}
		}
		if !s.cfg.unreduced && s.porSuppressed(incoming, a) {
			pruned++
			continue
		}
		if err := apply(a, -1); err != nil {
			return out, err
		}
	}
	if pruned > 0 {
		s.levelPruned.Add(pruned)
	}
	return out, nil
}
