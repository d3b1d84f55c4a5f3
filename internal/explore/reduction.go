package explore

import (
	"strconv"

	"repro/internal/ioa"
)

// This file implements the explorer's two state-space reductions. Both
// preserve the search's verdict, its shortest-violating-trace level
// semantics, and the exhausted/depth-limited statuses. Partial-order
// reduction is always on: it leaves every reported figure unchanged.
// Symmetry reduction is opt-in (Config.Symmetry), because it shrinks
// StatesExplored.
//
// # Symmetry reduction (Config.Symmetry)
//
// Payload tokens and packet IDs are analysis labels: a payload-opaque
// protocol (Props.PayloadOpaque, the checked form of the paper's §5.3.1
// equivariance) never inspects, slices, or derives data from them, the
// channels transport them opaquely, and the safety monitors are
// equivariant — DL4/DL5 compare set membership and DL6 compares send
// positions, all of which commute with a bijective renaming π of the
// token universe. So π lifts to an automorphism of the transition
// system: s —a→ s' iff π(s) —π(a)→ π(s'), and π(s) violates exactly when
// s does, at the same depth.
//
// The reduction merges states in the same orbit by building dedup keys
// through canonical fingerprints: one ioa.Canon per key assigns payload
// tokens and packet IDs first-use indices during a deterministic
// traversal in fixed component order, and set-valued sections (monitor
// msgSets, sendOrder) assign fresh tokens in raw-sorted order and then
// emit indices numerically sorted. Equal canonical keys therefore
// exhibit a single bijection π mapping every component of one node onto
// the other. The inputs-used bitmap collapses to per-class counts
// (classOf): send_msg entries of one direction form one class, and any
// two states with equal counts have their remaining pools matched
// class-wise by an extension of π. Two guards keep this exact:
//
//   - The protocol must claim PayloadOpaque. The fragmenting protocol is
//     message-independent but slices payload contents into fragment
//     tokens, so whole-message renamings are not automorphisms for it.
//   - The pool's send_msg tokens must be pairwise distinct per
//     direction. With duplicate tokens, per-class counts identify states
//     whose remaining pools are NOT related by any bijection (injecting
//     the leftover duplicate then distinguishes them), so symmetry
//     silently degrades to off rather than risk a missed violation.
//
// When either guard fails, Config.Symmetry is ignored (s.sym stays
// false) and the search runs with raw keys — always sound, never wrong,
// just unreduced.
//
// # Partial-order reduction
//
// Invisible channel actions — packet deliveries and losses — on
// different channels touch disjoint component sets (a delivery on c̄
// steps {c̄, R}, on c steps {c, T}; a loss steps only its channel), so
// any two of them on different channels commute and preserve each
// other's enabledness. Likewise two losses on one channel commute: each
// marks a distinct pending entry lost and cannot disable the other.
// Every maximal run of consecutive invisible actions in a schedule can
// therefore be rewritten — preserving length, endpoint, and every
// action outside the run — into a canonical form: stably partitioned by
// channel component index, with each maximal consecutive run of losses
// inside a channel segment sorted by ascending packet ID (IDs are
// per-channel send indices, so ID order is send order). porSuppressed
// prunes exactly the transitions that violate this canonical form,
// keyed on the node's incoming action:
//
//   - after an invisible action on channel k, invisible actions on
//     channels with component index < k are suppressed;
//   - after a loss of packet ID p on channel k, losses on channel k of
//     packets with ID < p are suppressed.
//
// Soundness: any reachable state u has a minimal-depth schedule; its
// canonical rewrite has the same length and endpoint and is fully
// unsuppressed, so u is still reached at the same depth. The reachable
// state set and each state's BFS admission level are unchanged — POR
// prunes transitions (dedup hits), not states — hence verdicts,
// shortest traces, StatesExplored, and Exhausted/DepthLimited are all
// byte-identical to the unreduced search's (the package tests keep the
// unreduced expansion as the reference they compare against). It has
// no switch: it measured no slower than the unreduced expansion on any
// shape tried. The standard ample-set guards hold by construction: pool inputs, send_msg/receive_msg (the
// monitor-visible actions) and send_pkt are never suppressed, and a
// level's every node is still expanded, so no enabled transition
// starves across a level.

// setupReductions resolves the effective reduction switches and their
// lookup tables; called once from BFS after comps/chans/dupOf are built.
func (s *search) setupReductions() {
	s.chanByDir = make(map[ioa.Dir]int)
	s.chanLose = make(map[string]int)
	for i, ch := range s.chans {
		if ch == nil {
			continue
		}
		s.chanByDir[ch.Dir()] = i
		s.chanLose[ch.LoseActionName()] = i
	}

	s.sym = s.cfg.Symmetry && s.sys.Protocol.Props.PayloadOpaque && symPoolOK(s.cfg.Inputs)
	if !s.sym {
		return
	}
	// Used-bitmap classes: send_msg entries collapse per direction (their
	// tokens are interchangeable under renaming); every other entry
	// shares a class only with its exact duplicates, where counts and
	// bitmaps coincide because duplicates are injected in pool order.
	s.classOf = make([]int, len(s.cfg.Inputs))
	sendCls := make(map[ioa.Dir]int)
	for i, in := range s.cfg.Inputs {
		if in.Kind == ioa.KindSendMsg {
			id, ok := sendCls[in.Dir]
			if !ok {
				id = s.numClasses
				s.numClasses++
				sendCls[in.Dir] = id
			}
			s.classOf[i] = id
			continue
		}
		if j := s.dupOf[i]; j >= 0 {
			s.classOf[i] = s.classOf[j]
			continue
		}
		s.classOf[i] = s.numClasses
		s.numClasses++
	}
}

// symPoolOK reports whether the pool's send_msg tokens are pairwise
// distinct per direction — the precondition for collapsing the used
// bitmap to per-class counts.
func symPoolOK(inputs []ioa.Action) bool {
	type dirMsg struct {
		d ioa.Dir
		m ioa.Message
	}
	seen := make(map[dirMsg]bool)
	for _, a := range inputs {
		if a.Kind != ioa.KindSendMsg {
			continue
		}
		k := dirMsg{a.Dir, a.Msg}
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// appendUsedClassCounts appends the symmetric replacement of the used
// bitmap: one count per input class, in class order. extraIdx (or -1) is
// a pool input counted as used on top of the bitmap — the successor's
// injected input, so dedup probes need no materialised successor bitmap.
func (s *search) appendUsedClassCounts(dst []byte, used []bool, extraIdx int, b *workerBufs) []byte {
	cnt := b.classCnt
	if cap(cnt) < s.numClasses {
		cnt = make([]int, s.numClasses)
	} else {
		cnt = cnt[:s.numClasses]
		for i := range cnt {
			cnt[i] = 0
		}
	}
	b.classCnt = cnt
	for i, u := range used {
		if u {
			cnt[s.classOf[i]]++
		}
	}
	if extraIdx >= 0 {
		cnt[s.classOf[extraIdx]]++
	}
	for i, v := range cnt {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return dst
}

// porClass classifies an action for POR: the component index of the
// channel it is an invisible action of, and whether it is a loss. ok is
// false for every action POR must leave alone (inputs, send_pkt, the
// monitor-visible send_msg/receive_msg, wake/crash/fail).
func (s *search) porClass(a ioa.Action) (k int, isLose, ok bool) {
	switch a.Kind {
	case ioa.KindReceivePkt:
		k, ok = s.chanByDir[a.Dir]
		return k, false, ok
	case ioa.KindInternal:
		k, ok = s.chanLose[a.Name]
		return k, true, ok
	}
	return 0, false, false
}

// porSuppressed reports whether exploring a from a node whose incoming
// action was prev would leave the canonical interleaving order (see the
// file comment). Never true when either action is not an invisible
// channel action — in particular never for a violating successor, since
// monitor-visible actions are never invisible.
func (s *search) porSuppressed(prev, a ioa.Action) bool {
	ak, aLose, ok := s.porClass(a)
	if !ok {
		return false
	}
	pk, pLose, ok := s.porClass(prev)
	if !ok {
		return false
	}
	if ak < pk {
		return true
	}
	return ak == pk && aLose && pLose && a.Pkt.ID < prev.Pkt.ID
}
