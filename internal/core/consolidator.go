package core

import (
	"cmp"
	"errors"
	"slices"
	"time"

	"tagmatch/internal/bitvec"
)

// This file is the consolidation machinery behind the live-update
// subsystem: the three-phase consolidateOnce that both the synchronous
// Consolidate and the background consolidator run, and the background
// goroutine that auto-triggers it when the delta overlay outgrows
// Config.DeltaMaxSets / Config.DeltaMaxRatio.
//
// The live index is the one consolidated copy of the database: a
// signature keeps one row for the life of a layout, row r's entries are
// its slice of the key CSR, and the generation's rowTable maps each
// signature to its row. A consolidation never writes the live generation;
// it builds the next one beside it and swaps:
//
//	Phase A (stagedMu, brief)    cut := len(staged); apply staged[:cut] to
//	                             clones of the rows it touches
//	Phase B (no locks, long)     partition + sort + key table + transposed
//	                             groups + row table, host-side only
//	Phase C (submitMu+stagedMu)  drain in-flight queries, drop the cut from
//	                             the log, swap the index, upload to devices,
//	                             rebuild the overlay from the staged suffix
//
// The background form takes submitMu only in Phase C, so the old index
// and the overlay keep serving while Phase B runs, and the pause is drain
// + device upload, not the full rebuild. The synchronous form
// (Consolidate, LoadSnapshot) drains and blocks submissions before Phase
// A; otherwise the phases are the same. Because the cut leaves the log
// in the same critical section that swaps the index, the live index ⊕
// staged is the same logical database before and after a swap: stageOp
// classifies removes against the live index, and SaveSnapshot, which
// holds stagedMu, writes the live index ⊕ staged.
//
// A layout — the rows, partitioned and ordered, their groups and run
// nodes, the routing and row tables, the device shards and streams —
// changes only in a full build, as the paper lays its partitions out only
// at consolidate() (Algorithm 1). When the cut is small relative to the
// index and touches only signatures the index holds a row for, Phase B
// runs the incremental form: the new generation shares its predecessor's
// layout by pointer and writes only a new key CSR (rewriteKeys), so a
// fold costs a flat key copy, nothing is uploaded, and the background
// consolidator keeps up with sustained churn without starving the query
// path for CPU. A touched row takes its new entries; a row the cut empties
// stays in place, and a later re-add refills it. A cut holding a signature
// the index has never held takes a full build, as does a cut over a layout
// that lost its devices (a degraded upload, retried) and one whose emptied
// rows have grown past incrementalEligible's bound. A full build lists the
// old index's live rows with the cut applied, then the cut's new
// signatures, then a bulk load (listDatabase), and lays them out afresh.

// entryList is one set's entries: its keys and, only when the engine runs
// in ExactVerify mode, their tags, parallel to keys (nil otherwise).
type entryList struct {
	keys []Key
	tags [][]string
}

// applyOp applies one staged op to an entry list the caller owns and
// returns the updated list: an add appends, a remove drops the first
// entry carrying the key (swap-with-last; entry order within a set is not
// meaningful). Consolidation and the snapshot writer share this helper,
// so the two transforms cannot diverge.
func (l entryList) applyOp(op stagedOp, withTags bool) entryList {
	if !op.remove {
		l.keys = append(l.keys, op.key)
		if withTags {
			l.tags = append(l.tags, op.tags)
		}
		return l
	}
	for i, k := range l.keys {
		if k != op.key {
			continue
		}
		last := len(l.keys) - 1
		l.keys[i] = l.keys[last]
		l.keys = l.keys[:last]
		if l.tags != nil {
			l.tags[i] = l.tags[last]
			l.tags = l.tags[:last]
		}
		return l
	}
	return l
}

// touchedSet is one signature a cut of the staged log touches: its
// entries once the cut is applied (empty when it removed them all), and
// the signature's row they replace, -1 when the index has none.
type touchedSet struct {
	sig  bitvec.Vector
	row  int32
	ents entryList
}

// touchedBy applies ops to the entries idx serves, without writing idx:
// it returns each signature the ops touch, in first-touched order, with
// its entries cloned from its row and rewritten.
func touchedBy(idx *index, ops []stagedOp, withTags bool) []touchedSet {
	at := make(map[bitvec.Vector]int, len(ops))
	var out []touchedSet
	for _, op := range ops {
		i, ok := at[op.sig]
		if !ok {
			r, l := idx.liveRow(op.sig)
			i = len(out)
			at[op.sig] = i
			ents := entryList{keys: slices.Clone(l.keys), tags: slices.Clone(l.tags)}
			out = append(out, touchedSet{sig: op.sig, row: r, ents: ents})
		}
		out[i].ents = out[i].ents.applyOp(op, withTags)
	}
	return out
}

// setList is a list of sets in order, as a CSR: set m is sigs[m] with the
// keys keys[off[m]:off[m+1]] and, only in ExactVerify mode, their tags,
// the same window of tags. That is the shape of the index's key table, so
// the build copies key ranges. A setList carries a database a full build
// lays out or a snapshot writes, and a bulk load a synchronous
// consolidation adds after the staged log. A listed database also carries
// rows, the row table of its signatures keyed by list index, which the
// build rekeys to its rows.
type setList struct {
	sigs []bitvec.Vector
	off  []uint32 // len(sigs)+1 offsets; nil while the list is empty
	keys []Key
	tags [][]string
	rows rowTable
}

// entries returns set m's entries. They alias the list.
func (l *setList) entries(m int) entryList {
	lo, hi := l.off[m], l.off[m+1]
	ents := entryList{keys: l.keys[lo:hi]}
	if l.tags != nil {
		ents.tags = l.tags[lo:hi]
	}
	return ents
}

// add appends a set holding ents.
func (l *setList) add(sig bitvec.Vector, ents entryList, withTags bool) {
	if l.off == nil {
		l.off = []uint32{0}
	}
	l.sigs = append(l.sigs, sig)
	l.appendEntries(ents, withTags)
	l.off = append(l.off, uint32(len(l.keys)))
}

// listDatabase lists the database from ⊕ touched ⊕ bulk: the live rows of
// from in row order, each replaced by its touched entries where the cut
// changed it; then the cut's new signatures in first-touched order; then
// the bulk, where a signature already listed gains the record's entries.
// No listed set is empty and no signature repeats: the list's row table,
// sized for every non-empty record, finds the bulk's repeats as it is
// filled. The listing is one CSR, sized once, that every part appends its
// key ranges to; only a bulk that repeats a signature costs a second pass
// (mergeRepeats). The bulk is consumed: when nothing is listed before it
// (a load into an empty engine), its own arrays become the listing's and
// each record moves at most back over the records dropped before it, so
// a load lists without allocating a second copy of the database.
// withTags lists the entries' tags too.
func listDatabase(from *index, touched []touchedSet, bulk setList, withTags bool) setList {
	var over map[uint32]int
	nKeys := len(from.keys) + len(bulk.keys)
	for i, ts := range touched {
		nKeys += len(ts.ents.keys)
		if ts.row >= 0 {
			if over == nil {
				over = make(map[uint32]int)
			}
			over[uint32(ts.row)] = i
		}
	}
	var l setList
	if len(from.sets) == 0 && len(touched) == 0 && len(bulk.sigs) > 0 {
		l = setList{sigs: bulk.sigs[:0], off: bulk.off[:1], keys: bulk.keys[:0]}
		if withTags {
			l.tags = bulk.tags[:0]
		}
	} else {
		n := len(from.sets) + len(touched) + len(bulk.sigs)
		l = setList{sigs: make([]bitvec.Vector, 0, n), off: make([]uint32, 1, n+1), keys: make([]Key, 0, nKeys)}
		if withTags {
			l.tags = make([][]string, 0, nKeys)
		}
	}
	for r := range from.sets {
		ents := from.row(uint32(r))
		if over != nil {
			if i, ok := over[uint32(r)]; ok {
				ents = touched[i].ents
			}
		}
		if len(ents.keys) > 0 {
			l.add(from.sets[r], ents, withTags)
		}
	}
	for _, ts := range touched {
		if ts.row < 0 && len(ts.ents.keys) > 0 {
			l.add(ts.sig, ts.ents, withTags)
		}
	}
	reach := len(l.sigs)
	for m := range bulk.sigs {
		if bulk.off[m+1] > bulk.off[m] {
			reach++
		}
	}
	l.rows = fillRowTable(l.sigs, reach)
	// A repeated record's entries are set aside, with the set they join,
	// before a later record can move over them.
	var repeats setList
	var joins []uint32
	for m, sig := range bulk.sigs {
		ents := bulk.entries(m)
		if len(ents.keys) == 0 {
			continue
		}
		slot := l.rows.find(l.sigs, sig)
		if at := l.rows[slot]; at != 0 {
			repeats.add(sig, ents, withTags)
			joins = append(joins, at-1)
			continue
		}
		l.add(sig, ents, withTags)
		l.rows[slot] = uint32(len(l.sigs))
	}
	if len(joins) > 0 {
		l.mergeRepeats(repeats, joins, withTags)
	}
	if len(l.rows) > rowTableSlots(len(l.sigs)) {
		// The bulk repeated enough signatures to leave the table twice
		// the size its sets need.
		l.rows = fillRowTable(l.sigs, len(l.sigs))
	}
	return l
}

// mergeRepeats rewrites l's key CSR with each of the repeated records'
// entries appended to set joins[i]'s, in record order.
func (l *setList) mergeRepeats(repeats setList, joins []uint32, withTags bool) {
	order := make([]int, len(joins))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(joins[a], joins[b]) })
	nKeys := len(l.keys) + len(repeats.keys)
	merged := setList{sigs: l.sigs, off: make([]uint32, 1, len(l.off)), keys: make([]Key, 0, nKeys), rows: l.rows}
	if withTags {
		merged.tags = make([][]string, 0, nKeys)
	}
	for m := range l.sigs {
		merged.appendEntries(l.entries(m), withTags)
		for ; len(order) > 0 && joins[order[0]] == uint32(m); order = order[1:] {
			merged.appendEntries(repeats.entries(order[0]), withTags)
		}
		merged.off = append(merged.off, uint32(len(merged.keys)))
	}
	*l = merged
}

// appendEntries appends ents to the last set's key range, which the
// caller closes with its offset. With tags, entries that came without
// them get nil tags.
func (l *setList) appendEntries(ents entryList, withTags bool) {
	l.keys = append(l.keys, ents.keys...)
	switch {
	case !withTags:
	case ents.tags == nil:
		l.tags = append(l.tags, make([][]string, len(ents.keys))...)
	default:
		l.tags = append(l.tags, ents.tags...)
	}
}

// trimStaged drops the first cut staged ops, which the index being
// swapped in has consolidated. Called with e.stagedMu held.
func (e *Engine) trimStaged(cut int) {
	rest := len(e.staged) - cut
	if cap(e.staged) > 4096 && cap(e.staged) > 4*rest {
		// Release the log's backing array after a large consolidation —
		// a burst of staged ops (a bulk AddSet before one Consolidate) can
		// leave multi-million-op capacity behind that the steady-state
		// suffix will never refill, and the GC would otherwise mark it on
		// every cycle.
		e.staged = append(make([]stagedOp, 0, rest), e.staged[cut:]...)
	} else {
		e.staged = append(e.staged[:0], e.staged[cut:]...)
	}
}

// consolidateOnce runs one full consolidation. The synchronous form
// (background=false — the public Consolidate and LoadSnapshot) is the
// stop-the-world one: it blocks submissions across all three phases. The
// background form defers the exclusive submitMu section to Phase C, so
// queries keep flowing — served by the old index plus the overlay —
// during the long Phase B build.
// consolidateMu serializes concurrent callers (explicit Consolidate vs
// the background goroutine).
//
// bulk is a batch of associations consolidated after the staged log in
// the same pass (LoadSnapshot's path). Only the synchronous form is
// handed one: submissions are blocked for the whole pass, so the bulk
// never needs an overlay generation of its own — a snapshot-sized
// overlay would cost hundreds of MB of bit-sliced groups and maps just to
// be discarded at the swap.
func (e *Engine) consolidateOnce(background bool, bulk setList) error {
	e.consolidateMu.Lock()
	defer e.consolidateMu.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if background && !e.deltaOverThreshold() {
		// The consolidation this fold queued behind already took what it
		// was woken for; an empty cut is not incrementalEligible and would
		// rebuild and re-upload the whole index for nothing.
		return nil
	}

	start := time.Now()
	if !background {
		e.submitMu.Lock()
		defer e.submitMu.Unlock()
		// Finish everything routed through the old index.
		e.Drain()
	}

	// Phase A: cut the log and apply the prefix to clones of the rows it
	// touches. Background folds of a small delta that only rewrites keys
	// take the incremental path: Phase B keeps the old index's layout and
	// writes a new key table instead of re-partitioning the world.
	e.stagedMu.Lock()
	cut := len(e.staged)
	old := e.idx.Load()
	touched := touchedBy(old, e.staged[:cut], e.cfg.ExactVerify)
	e.stagedMu.Unlock()
	incremental := background && e.incrementalEligible(old, touched, cut)
	var idx *index
	if incremental {
		idx = &index{layout: old.layout}
		idx.emptyRows = idx.rewriteKeys(old, touched, e.cfg.ExactVerify)
		e.obs.Delta.IncrementalFolds.Add(1)
	} else {
		// Phase B: the expensive host-side build — off the hot path in
		// background mode. Device memory is untouched here, so the old
		// index's buffers are not double-counted against the device
		// budget.
		idx = e.buildHostIndex(listDatabase(old, touched, bulk, e.cfg.ExactVerify))
	}

	// Phase C: drain, swap, upload.
	if background {
		e.submitMu.Lock()
		defer e.submitMu.Unlock()
		if e.closed.Load() {
			return ErrClosed
		}
		e.Drain()
	}
	pauseStart := time.Now()

	e.stagedMu.Lock()
	e.trimStaged(cut)
	var degraded error
	if !incremental {
		// Full path: release the old layout before the new one allocates
		// device memory, or the per-device stream and memory budgets
		// would be double-counted. The pipeline is drained and
		// submissions are blocked, so nothing references it.
		e.idx.Store(emptyIndex())
		old.release()
		degraded = e.attachDevices(idx.layout)
	}
	idx.hostBytes.Store(hostBytesFor(idx))
	e.idx.Store(idx)
	if !e.cfg.DisableLiveUpdates {
		e.delta.rebuild(idx, e.staged)
	}
	e.stagedMu.Unlock()

	// Fresh per-partition hot-spot counters for a new layout, so partition
	// ids in the stats always refer to the live index's partitions; a
	// key-only fold keeps the partitions, and their counters count on.
	if e.obs.On && !incremental {
		sizes := make([]int, len(idx.parts))
		for i := range idx.parts {
			sizes[i] = int(idx.parts[i].n)
		}
		e.obs.Parts.Reset(sizes)
	}

	if background {
		pause := time.Since(pauseStart)
		e.obs.Delta.LastSwapPauseNs.Store(int64(pause))
		e.obs.Delta.AutoConsolidations.Add(1)
		e.obs.Delta.SwapPause.Observe(int64(pause))
	}
	e.obs.Delta.LastConsolidateNs.Store(int64(time.Since(start)))
	return degraded
}

// incrementalEligible decides whether a background fold may keep the old
// index's layout and rewrite only its key table. It may when the cut is
// small (else the key copy approaches rebuild cost), touches no signature
// the index has never held (a new row is a new layout), leaves few emptied
// rows (each still takes a kernel lane), and the layout holds the devices
// the engine has (a layout that degraded to CPU retries its upload in a
// full build).
func (e *Engine) incrementalEligible(old *index, touched []touchedSet, cut int) bool {
	n := len(old.sets)
	if n == 0 || cut <= 0 || cut*4 > n || old.emptyRows*8 > n {
		return false
	}
	if len(old.devShards) != len(e.devices) {
		return false
	}
	for _, ts := range touched {
		if ts.row < 0 && len(ts.ents.keys) > 0 {
			return false
		}
	}
	return true
}

// rewriteKeys writes idx's key CSR afresh: old's rows in order, each
// touched row holding its new entries. Runs of untouched rows are copied
// in bulk, their offsets shifted (a row-by-row copy takes about five
// times as long at 800,000 rows). It returns how many of the rows are
// empty.
func (idx *index) rewriteKeys(old *index, touched []touchedSet, withTags bool) (empty int) {
	var over []*touchedSet // the touched sets that have a row, in row order
	nKeys := len(old.keys)
	for i := range touched {
		if ts := &touched[i]; ts.row >= 0 {
			over = append(over, ts)
			nKeys += len(ts.ents.keys) - len(old.row(uint32(ts.row)).keys)
		}
	}
	slices.SortFunc(over, func(a, b *touchedSet) int { return cmp.Compare(a.row, b.row) })

	idx.keyOff = make([]uint32, 1, len(old.sets)+1)
	idx.keys = make([]Key, 0, nKeys)
	if withTags {
		idx.keyTags = make([][]string, 0, nKeys)
	}
	from := 0 // the first of old's rows not yet written
	copyRows := func(to int) {
		lo, hi := old.keyOff[from], old.keyOff[to]
		shift := uint32(len(idx.keys)) - lo
		idx.keys = append(idx.keys, old.keys[lo:hi]...)
		if withTags {
			idx.keyTags = append(idx.keyTags, old.keyTags[lo:hi]...)
		}
		for r := from; r < to; r++ {
			if old.keyOff[r+1] == old.keyOff[r] {
				empty++
			}
			idx.keyOff = append(idx.keyOff, old.keyOff[r+1]+shift)
		}
	}
	for _, ts := range over {
		copyRows(int(ts.row))
		idx.appendKeys(ts.ents, withTags)
		if len(ts.ents.keys) == 0 {
			empty++
		}
		from = int(ts.row) + 1
	}
	copyRows(len(old.sets))
	return empty
}

// deltaOverThreshold reports whether the overlay has outgrown the
// auto-consolidation trigger: DeltaMaxSets pending live ops, or
// DeltaMaxRatio of the main index's set count, whichever is LARGER (the
// max keeps rebuild cost amortized-geometric under bulk loads: each
// background rebuild grows the index by at least the ratio). A backlog
// of staged ops whose overlay entries cancelled out (add+remove churn of
// the same associations) still forces consolidation at 8x the op
// threshold, bounding the log.
func (e *Engine) deltaOverThreshold() bool {
	if e.cfg.DisableLiveUpdates {
		return false
	}
	size := e.delta.addsLive.Load() + e.delta.tombsLive.Load()
	if backlog := int64(e.PendingOps()) / 8; backlog > size {
		size = backlog
	}
	if size == 0 {
		return false
	}
	thr := int64(e.cfg.DeltaMaxSets)
	if byRatio := int64(e.cfg.DeltaMaxRatio * float64(len(e.idx.Load().sets))); byRatio > thr {
		thr = byRatio
	}
	return size >= thr
}

// maybeKickConsolidator nudges the background consolidator when the
// overlay is over threshold. Non-blocking: the kick channel holds one
// pending wakeup and the loop re-checks the threshold itself.
func (e *Engine) maybeKickConsolidator() {
	if e.consolKick == nil || !e.deltaOverThreshold() {
		return
	}
	select {
	case e.consolKick <- struct{}{}:
	default:
	}
}

// consolidatorLoop is the background consolidator goroutine: woken by
// maybeKickConsolidator, it re-checks the threshold and folds the
// overlay into the main index until the overlay is back under it (churn
// absorbed during a swap re-arms the loop immediately). Started by New
// unless Config.DisableLiveUpdates; stopped first thing in Close.
func (e *Engine) consolidatorLoop() {
	defer close(e.consolDone)
	for {
		select {
		case <-e.consolStop:
			return
		case <-e.consolKick:
		}
		for e.deltaOverThreshold() {
			err := e.consolidateOnce(true, setList{})
			if err != nil && !errors.Is(err, ErrDeviceDegraded) {
				return // ErrClosed: the engine is shutting down
			}
			if err != nil {
				e.log.Warn("background consolidation degraded to CPU-only", "err", err)
			}
			select {
			case <-e.consolStop:
				return
			default:
			}
		}
	}
}
