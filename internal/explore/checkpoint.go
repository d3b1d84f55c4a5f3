package explore

import (
	"bufio"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/ioa"
)

// This file is the explorer's non-volatile memory. Theorem 7.5 says no
// data link protocol tolerates host crashes without non-volatile state;
// the model checker itself is no different — a multi-hour exhaustive
// search killed by OOM, SIGINT or a power cut used to lose everything.
// A checkpoint is a durable snapshot of the BFS taken at a level
// barrier: the current frontier (as per-node schedules, replayable
// through the deterministic Step/monitor machinery), the seen-set (hash
// seed + admitted fingerprints), and the cumulative counters. Because
// levels are barriers, the snapshot is a *complete* cut of the search:
// resuming from it and running to the end yields the same Result the
// uninterrupted run would have produced (identical StatesExplored,
// DepthReached, Exhausted/DepthLimited, and — for sequential searches —
// the identical violation trace; see DESIGN.md on the level-barrier
// resume invariant).
//
// On-disk format (version 2): a JSONL file of
//
//	header   {"magic":"dl-explore-checkpoint","version":2,"config":...}
//	nodes    {"n":[<action>,...]}          one line per frontier node
//	seen     {"h":"<base64 u64le...>"}     admitted fingerprints, chunked
//	footer   {"end":<line count>,"crc":"<crc32c-hex of all prior bytes>"}
//
// written atomically (tmp + rename). The decoder is strict: wrong magic
// or version, a malformed or missing line, a line-count or checksum
// mismatch, a negative level or depth, or a node schedule whose length
// is not the header's level all error — a corrupt checkpoint must never
// silently misresume (the fuzz target pins "error, never panic"). The file
// contains no wall-clock timestamps: resumable state is deterministic,
// timing lives in obs events only.

// CheckpointMagic identifies explorer checkpoint files.
const CheckpointMagic = "dl-explore-checkpoint"

// CheckpointVersion is the current format version; decoders reject
// anything else.
const CheckpointVersion = 2

// ErrCheckpointFormat reports a structurally invalid checkpoint file.
var ErrCheckpointFormat = errors.New("explore: invalid checkpoint")

// ErrCheckpointMismatch reports a checkpoint taken under a different
// search configuration than the one resuming from it.
var ErrCheckpointMismatch = errors.New("explore: checkpoint was taken under a different configuration")

// CheckpointOptions configures periodic durable snapshots of a search.
type CheckpointOptions struct {
	// Path is the checkpoint file; empty disables checkpointing.
	Path string
	// EveryLevels writes a checkpoint every N completed BFS levels
	// (0: no level-based cadence).
	EveryLevels int
	// Every writes a checkpoint when at least this much wall time has
	// passed since the previous one, checked at level barriers (0: no
	// time-based cadence). The cadence clock never enters the file.
	Every time.Duration
	// A graceful stop (Config.Stop) always writes a final checkpoint
	// regardless of cadence, as does the very first barrier when any
	// cadence is configured.
}

// enabled reports whether any checkpointing is requested.
func (o CheckpointOptions) enabled() bool { return o.Path != "" }

// Checkpoint is the decoded in-memory form of a checkpoint file.
type Checkpoint struct {
	// ConfigDigest fingerprints the search configuration (inputs, bounds,
	// monitor, system start state); Resume validates it.
	ConfigDigest string
	// Level is the depth of the stored frontier nodes: every Frontier
	// schedule has exactly Level actions (meaningful when Frontier is
	// non-empty).
	Level int
	// DepthReached is Result.DepthReached at the snapshot barrier.
	DepthReached int
	// States is the cumulative distinct-state count (Result.StatesExplored
	// continues from here).
	States int64
	// Truncated records whether the state budget had already been hit.
	Truncated bool
	// HashSeed is the seen-set's hash seed: the resumed search must map
	// keys to the same fingerprints.
	HashSeed uint64
	// Frontier holds one schedule per frontier node, in frontier order;
	// resume replays each through the deterministic step machinery.
	Frontier []ioa.Schedule
	// SeenHashes are the admitted dedup fingerprints, sorted.
	SeenHashes []uint64
}

// wire types of the JSONL lines.
type ckptHeader struct {
	Magic        string `json:"magic"`
	Version      int    `json:"version"`
	Config       string `json:"config"`
	Level        int    `json:"level"`
	DepthReached int    `json:"depth_reached"`
	States       int64  `json:"states"`
	Truncated    bool   `json:"truncated"`
	Seed         string `json:"seed"`
	Nodes        int    `json:"nodes"`
	SeenLines    int    `json:"seen_lines"`
}

type ckptNodeLine struct {
	N *ioa.Schedule `json:"n"`
}

type ckptSeenLine struct {
	H string `json:"h"`
}

type ckptFooter struct {
	End *int   `json:"end"`
	CRC string `json:"crc"`
}

// ckptHashesPerLine keeps individual JSONL lines comfortably under the
// decoder's buffer while amortising per-line overhead.
const ckptHashesPerLine = 4096

// EncodeCheckpoint writes the versioned JSONL encoding of c to w,
// checksummed with a trailing footer line.
func EncodeCheckpoint(w io.Writer, c *Checkpoint) error {
	crc := crc32.NewIEEE()
	body := io.MultiWriter(w, crc)
	writeLine := func(v any) error {
		blob, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = body.Write(append(blob, '\n'))
		return err
	}
	head := ckptHeader{
		Magic:        CheckpointMagic,
		Version:      CheckpointVersion,
		Config:       c.ConfigDigest,
		Level:        c.Level,
		DepthReached: c.DepthReached,
		States:       c.States,
		Truncated:    c.Truncated,
		Seed:         strconv.FormatUint(c.HashSeed, 16),
		Nodes:        len(c.Frontier),
		SeenLines:    (len(c.SeenHashes) + ckptHashesPerLine - 1) / ckptHashesPerLine,
	}
	if err := writeLine(head); err != nil {
		return err
	}
	// Node lines dominate the encode — one per frontier node, each a full
	// schedule — while drawing on a tiny action alphabet, so each distinct
	// action's wire form is marshalled once and the lines are assembled in
	// a reused buffer. The concatenation is byte-identical to marshalling
	// ckptNodeLine{N: &schedule}: `{"n":[a,…]}` with `null` for a nil
	// schedule, exactly encoding/json's output for a *[]Action field.
	actionWire := make(map[ioa.Action][]byte)
	line := make([]byte, 0, 1<<12)
	for i := range c.Frontier {
		if c.Frontier[i] == nil {
			line = append(line[:0], `{"n":null}`+"\n"...)
		} else {
			line = append(line[:0], `{"n":[`...)
			for j, a := range c.Frontier[i] {
				wire, ok := actionWire[a]
				if !ok {
					var err error
					wire, err = json.Marshal(a)
					if err != nil {
						return err
					}
					actionWire[a] = wire
				}
				if j > 0 {
					line = append(line, ',')
				}
				line = append(line, wire...)
			}
			line = append(line, "]}\n"...)
		}
		if _, err := body.Write(line); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, ckptHashesPerLine*8)
	for i := 0; i < len(c.SeenHashes); i += ckptHashesPerLine {
		end := min(i+ckptHashesPerLine, len(c.SeenHashes))
		buf = buf[:0]
		for _, h := range c.SeenHashes[i:end] {
			buf = binary.LittleEndian.AppendUint64(buf, h)
		}
		if err := writeLine(ckptSeenLine{H: base64.StdEncoding.EncodeToString(buf)}); err != nil {
			return err
		}
	}
	lines := 1 + len(c.Frontier) + head.SeenLines
	foot := ckptFooter{End: &lines, CRC: fmt.Sprintf("%08x", crc.Sum32())}
	blob, err := json.Marshal(foot)
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}

// DecodeCheckpoint reads and validates one checkpoint stream. Every
// structural deviation — bad magic, unknown version, malformed line,
// negative level or depth, a frontier schedule whose length is not the
// level, wrong line count, checksum mismatch, trailing data — is an error
// wrapping ErrCheckpointFormat; the decoder never panics on corrupt or
// truncated input.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<23)
	crc := crc32.NewIEEE()
	lineNo := 0
	nextLine := func() ([]byte, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCheckpointFormat, err)
			}
			return nil, fmt.Errorf("%w: truncated after %d lines", ErrCheckpointFormat, lineNo)
		}
		lineNo++
		line := sc.Bytes()
		crc.Write(line)
		crc.Write([]byte{'\n'})
		return line, nil
	}
	strict := func(line []byte, v any) error {
		dec := json.NewDecoder(bytesReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return fmt.Errorf("%w: line %d: %v", ErrCheckpointFormat, lineNo, err)
		}
		return nil
	}

	line, err := nextLine()
	if err != nil {
		return nil, err
	}
	// Magic and version are read before the strict decode, so a file of
	// another version is reported by its version, not by a header field
	// this version lacks.
	var id struct {
		Magic   string `json:"magic"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(line, &id); err != nil {
		return nil, fmt.Errorf("%w: line %d: %v", ErrCheckpointFormat, lineNo, err)
	}
	if id.Magic != CheckpointMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrCheckpointFormat, id.Magic)
	}
	if id.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads version %d)",
			ErrCheckpointFormat, id.Version, CheckpointVersion)
	}
	var head ckptHeader
	if err := strict(line, &head); err != nil {
		return nil, err
	}
	if head.Nodes < 0 || head.SeenLines < 0 || head.States < 0 {
		return nil, fmt.Errorf("%w: negative count in header", ErrCheckpointFormat)
	}
	if head.Level < 0 || head.DepthReached < 0 {
		return nil, fmt.Errorf("%w: negative level or depth in header", ErrCheckpointFormat)
	}
	c := &Checkpoint{
		ConfigDigest: head.Config,
		Level:        head.Level,
		DepthReached: head.DepthReached,
		States:       head.States,
		Truncated:    head.Truncated,
	}
	if c.HashSeed, err = strconv.ParseUint(head.Seed, 16, 64); err != nil {
		return nil, fmt.Errorf("%w: bad seed %q", ErrCheckpointFormat, head.Seed)
	}
	c.Frontier = make([]ioa.Schedule, 0, min(head.Nodes, 1<<12))
	for i := 0; i < head.Nodes; i++ {
		line, err := nextLine()
		if err != nil {
			return nil, err
		}
		var nl ckptNodeLine
		if err := strict(line, &nl); err != nil {
			return nil, err
		}
		if nl.N == nil {
			return nil, fmt.Errorf("%w: line %d: not a node line", ErrCheckpointFormat, lineNo)
		}
		// The frontier is one BFS level: every node sits at the header's
		// depth, and resume takes that depth for all of them.
		if len(*nl.N) != head.Level {
			return nil, fmt.Errorf("%w: line %d: schedule of %d actions in a level-%d frontier",
				ErrCheckpointFormat, lineNo, len(*nl.N), head.Level)
		}
		c.Frontier = append(c.Frontier, *nl.N)
	}
	for i := 0; i < head.SeenLines; i++ {
		line, err := nextLine()
		if err != nil {
			return nil, err
		}
		var sl ckptSeenLine
		if err := strict(line, &sl); err != nil {
			return nil, err
		}
		blob, err := base64.StdEncoding.DecodeString(sl.H)
		if err != nil || len(blob) == 0 || len(blob)%8 != 0 {
			return nil, fmt.Errorf("%w: line %d: bad hash chunk", ErrCheckpointFormat, lineNo)
		}
		for ; len(blob) >= 8; blob = blob[8:] {
			c.SeenHashes = append(c.SeenHashes, binary.LittleEndian.Uint64(blob))
		}
	}

	// The footer is checksummed over everything before it.
	sum := crc.Sum32()
	bodyLines := lineNo
	line, err = nextLine()
	if err != nil {
		return nil, err
	}
	var foot ckptFooter
	if err := strict(line, &foot); err != nil {
		return nil, err
	}
	if foot.End == nil || *foot.End != bodyLines {
		return nil, fmt.Errorf("%w: footer line count mismatch", ErrCheckpointFormat)
	}
	if foot.CRC != fmt.Sprintf("%08x", sum) {
		return nil, fmt.Errorf("%w: checksum mismatch (file corrupt?)", ErrCheckpointFormat)
	}
	if sc.Scan() {
		return nil, fmt.Errorf("%w: data after footer", ErrCheckpointFormat)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointFormat, err)
	}
	return c, nil
}

// bytesReader avoids importing bytes for one call site.
func bytesReader(b []byte) io.Reader { return &byteSliceReader{b: b} }

type byteSliceReader struct{ b []byte }

func (r *byteSliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// WriteCheckpoint atomically writes c to path: encode to path+".tmp",
// sync, then rename over path — a crash mid-write leaves the previous
// checkpoint intact. It returns the encoded size in bytes.
func WriteCheckpoint(path string, c *Checkpoint) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: bufio.NewWriterSize(f, 1<<20)}
	if err := EncodeCheckpoint(cw, c); err == nil {
		err = cw.w.(*bufio.Writer).Flush()
		if err == nil {
			err = f.Sync()
		}
	} else {
		defer os.Remove(tmp)
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadCheckpoint opens, decodes and validates the checkpoint at path.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(bufio.NewReaderSize(f, 1<<20))
}

// ---- search integration ----

// configDigestSeed is the fixed hash64 seed for configuration digests
// (fixed so the digest is stable across processes, which is the point).
const configDigestSeed = 0xd1c4_c0de_0000_0001

// configDigest fingerprints everything that determines the search's
// future from a frontier cut: the input pool, the bounds, the
// reductions, the monitor's start state and the system's start state
// (which covers the protocol, parameters and channel variant through the
// dedup key). Two searches with equal digests expand equal frontiers equally.
func (s *search) configDigest(start ioa.State, monitor Monitor) (string, error) {
	key, err := s.appendDedupKey(nil, start, monitor, make([]bool, len(s.cfg.Inputs)), -1, nil)
	if err != nil {
		return "", err
	}
	buf := key
	buf = append(buf, "|cfg|"...)
	for _, in := range s.cfg.Inputs {
		buf = append(buf, in.String()...)
		buf = append(buf, ';')
	}
	buf = strconv.AppendInt(buf, int64(s.maxDepth), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, s.maxStates, 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(s.cfg.MaxInTransit), 10)
	buf = append(buf, '|')
	buf = strconv.AppendBool(buf, s.cfg.AllowLoss)
	// Reductions change what the seen-set keys (symmetry) and which
	// transitions are expanded (POR, off only in the tests' unreduced
	// reference), so a checkpoint is only resumable under the same
	// EFFECTIVE switches. Using s.sym (not cfg.Symmetry) means a
	// requested-but-inert symmetry flag — non-opaque protocol, duplicate
	// pool tokens — matches the unreduced digest it actually ran as.
	buf = append(buf, '|')
	buf = strconv.AppendBool(buf, s.sym)
	buf = append(buf, '|')
	buf = strconv.AppendBool(buf, !s.cfg.unreduced)
	return fmt.Sprintf("%016x", hash64(configDigestSeed, buf)), nil
}

// snapshot captures the search at a level barrier: the frontier as
// per-node schedules plus the dedup set and cumulative counters.
func (s *search) snapshot(lvl *arenaLevel, depthReached int) (*Checkpoint, error) {
	c := &Checkpoint{
		ConfigDigest: s.digest,
		DepthReached: depthReached,
		States:       s.count.Load(),
		Truncated:    s.truncated.Load(),
	}
	if lvl.size() > 0 {
		c.Level = lvl.depth
	} else {
		c.Level = depthReached
	}
	// Pack every frontier schedule into one shared slice: snapshotting a
	// 10k-node frontier otherwise allocates 10k short-lived slices per
	// barrier, and that garbage — not the encode — dominated checkpoint
	// overhead. Growth past the estimate leaves earlier entries on the
	// old backing array, which stays correct.
	c.Frontier = make([]ioa.Schedule, lvl.size())
	flat := make(ioa.Schedule, 0, lvl.size()*(c.Level+1))
	for i := range c.Frontier {
		start := len(flat)
		flat = lvl.appendTraceOf(flat, i)
		c.Frontier[i] = flat[start:len(flat):len(flat)]
	}
	set, ok := s.seen.(*hashedSeen)
	if !ok {
		return nil, fmt.Errorf("explore: seen-set %T does not support checkpointing", s.seen)
	}
	c.HashSeed = set.hashSeed()
	c.SeenHashes = set.hashes()
	return c, nil
}

// restore rebuilds the search from a decoded checkpoint: validates the
// configuration digest, repopulates the seen-set and counters, and
// replays each frontier schedule through the deterministic step
// machinery straight into a root level at depth c.Level (states,
// monitors, used-input masks and incoming actions), whose prefix is the
// checkpoint's schedules — what violation traces bottom out in.
func (s *search) restore(c *Checkpoint) (*arenaLevel, error) {
	if c.ConfigDigest != s.digest {
		return nil, fmt.Errorf("%w: digest %s, this search is %s",
			ErrCheckpointMismatch, c.ConfigDigest, s.digest)
	}
	set := newHashedSeenSeeded(c.HashSeed)
	if s.cfg.Checkpoint.enabled() {
		set.trackRuns()
	}
	for _, h := range c.SeenHashes {
		set.addSum(h)
	}
	s.seen = set
	s.count.Store(c.States)
	s.truncated.Store(c.Truncated)
	lvl := newRootLevel(len(c.Frontier), c.Level, len(s.cfg.Inputs), s.usedStride)
	lvl.prefix = c.Frontier
	used := make([]bool, len(s.cfg.Inputs))
	for i, tr := range c.Frontier {
		st, mon, err := s.replaySchedule(tr, used)
		if err != nil {
			return nil, err
		}
		lvl.states[i], lvl.monitors[i] = st, mon
		if len(tr) > 0 {
			// The incoming action feeds POR suppression.
			lvl.actions[i] = tr[len(tr)-1]
		}
		packUsed(lvl.usedBits[i*s.usedStride:(i+1)*s.usedStride], used)
	}
	return lvl, nil
}

// replaySchedule reconstructs one frontier node by stepping the recorded
// schedule from the start state, returning its state and monitor and
// leaving its inputs-used bitmap in used (overwritten). Packet IDs were
// canonicalised before recording, so actions apply verbatim; monitor
// steps mirror expand's.
func (s *search) replaySchedule(tr ioa.Schedule, used []bool) (ioa.State, Monitor, error) {
	clear(used)
	st, mon := s.sys.Comp.Start(), s.cfg.Monitor
	for _, a := range tr {
		var err error
		st, err = s.sys.Comp.Step(st, a)
		if err != nil {
			return nil, nil, fmt.Errorf("explore: checkpoint replay of %s: %w", a, err)
		}
		if s.extSig.ContainsExternal(a) {
			mon, _ = mon.Step(a)
		}
		if idx := s.poolIndex(used, a); idx >= 0 {
			used[idx] = true
		}
	}
	return st, mon, nil
}

// poolIndex returns the pool input index expand would have charged for
// injecting a — the first unused instance of the action whose earlier
// duplicates are all used — or -1 when a is locally controlled. This
// mirrors expand's eligibility rule exactly; environment inputs (wake,
// send_msg, crash) are never locally controlled in a composed data link
// system, so the dichotomy is unambiguous.
func (s *search) poolIndex(used []bool, a ioa.Action) int {
	for i, in := range s.cfg.Inputs {
		if used[i] || in != a {
			continue
		}
		eligible := true
		for j := s.dupOf[i]; j >= 0; j = s.dupOf[j] {
			if !used[j] {
				eligible = false
				break
			}
		}
		if eligible {
			return i
		}
	}
	return -1
}

// checkpointer tracks cadence state and performs barrier writes.
type checkpointer struct {
	s         *search
	opts      CheckpointOptions
	sinceLast int       // completed levels since the last write
	lastWrite time.Time // cadence clock only; never serialized
	wrote     bool
}

func newCheckpointer(s *search, opts CheckpointOptions) *checkpointer {
	// lint:ignore determinism checkpoint cadence clock only; never reaches Result or the file
	return &checkpointer{s: s, opts: opts, lastWrite: time.Now()}
}

// maybeWrite runs at each level barrier and writes when the cadence is
// due; final forces a write (the graceful-stop path). Failures surface
// as search errors: a user who asked for durability must notice losing
// it.
func (c *checkpointer) maybeWrite(lvl *arenaLevel, depthReached int, final bool) error {
	if !c.opts.enabled() {
		return nil
	}
	c.sinceLast++
	due := final
	if c.opts.EveryLevels > 0 && c.sinceLast >= c.opts.EveryLevels {
		due = true
	}
	// lint:ignore determinism checkpoint cadence clock only; never reaches Result or the file
	if c.opts.Every > 0 && time.Since(c.lastWrite) >= c.opts.Every {
		due = true
	}
	if !due {
		return nil
	}
	// lint:ignore determinism obs-only duration for the checkpoint event
	began := time.Now()
	snap, err := c.s.snapshot(lvl, depthReached)
	if err != nil {
		return err
	}
	bytes, err := WriteCheckpoint(c.opts.Path, snap)
	if err != nil {
		return fmt.Errorf("explore: writing checkpoint: %w", err)
	}
	c.sinceLast = 0
	// lint:ignore determinism checkpoint cadence clock only; never reaches Result or the file
	c.lastWrite = time.Now()
	c.wrote = true
	// lint:ignore determinism obs-only duration for the checkpoint event
	c.s.observeCheckpoint(snap.Level, len(snap.Frontier), c.s.seen.Len(), bytes, time.Since(began))
	return nil
}
