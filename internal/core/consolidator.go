package core

import (
	"errors"
	"sort"
	"time"

	"tagmatch/internal/bitvec"
)

// This file is the consolidation machinery behind the live-update
// subsystem: the three-phase consolidateOnce that both the synchronous
// Consolidate and the background consolidator run, and the background
// goroutine that auto-triggers it when the delta overlay outgrows
// Config.DeltaMaxSets / Config.DeltaMaxRatio.
//
// The background form (the zero-drain path) splits the rebuild so the
// old index and the overlay keep serving while the expensive work runs:
//
//	Phase A (stagedMu, brief)    cut := len(staged); snapshot db ⊕ staged[:cut]
//	                             without mutating db (copy-on-write overlay)
//	Phase B (no locks, long)     partition + sort + key table + transposed
//	                             mirror, host-side only
//	Phase C (submitMu+stagedMu)  drain in-flight queries, apply the prefix
//	                             to db, swap the index, upload to devices,
//	                             rebuild the overlay from the staged suffix
//
// Only Phase C pauses traffic, and its cost is drain + device upload —
// not the full rebuild. In the background form db must stay unmutated
// until Phase C, because the overlay the old index serves with classifies
// removes against "what the live index serves", which is db as of the
// last swap.
//
// The synchronous form (Consolidate, LoadSnapshot) drains and blocks
// submissions before Phase A, so no query reads the overlay until the
// swap rebuilds it. Its Phase A therefore commits the cut (and a bulk
// load) to db at once and lists db itself for Phase B: the log is walked
// and the database built once, not previewed and then re-applied.
// Either way SaveSnapshot, which holds stagedMu, serializes db ⊕ staged
// — the same logical state before and after a commit — and nothing but
// a consolidation, serialized by consolidateMu, writes db.
//
// When the cut is small relative to the index, Phase B runs the
// incremental form (buildIncrementalIndex): existing rows keep their
// partition, row order, transposed groups, and key CSR — all aliased
// from the old generation, with changed rows patched in a side map —
// and just the genuinely new signatures are partitioned. That drops
// the steady-state fold cost from O(database) partitioning
// to O(delta) appends, which is what lets the background
// consolidator keep up with sustained churn without starving the query
// path for CPU. Drift (emptied "dud" rows, appended partitions) is
// bounded by incrementalEligible, which forces a periodic full rebuild.

// applyOpEntries applies one staged op to a set's entry list, returning
// the updated list: an add appends, a remove drops the first entry
// carrying the key (swap-with-last; entry order within a set is not
// meaningful). Consolidation and the snapshot overlay share this helper
// so the two transforms cannot diverge.
func applyOpEntries(entries []dbEntry, op stagedOp) []dbEntry {
	if !op.remove {
		return append(entries, dbEntry{key: op.key, tags: op.tags})
	}
	for i := range entries {
		if entries[i].key == op.key {
			entries[i] = entries[len(entries)-1]
			return entries[:len(entries)-1]
		}
	}
	return entries
}

// snapshotWithPrefix materializes the database with the first cut staged
// ops applied, without mutating db: touched signatures are cloned on
// first write, untouched ones alias the live db slices (safe — db slices
// are only mutated by applyPrefix and applyBulk, in a later critical
// section of the same serialized consolidation). With cut 0 it lists db
// itself. Called with e.stagedMu held.
func (e *Engine) snapshotWithPrefix(cut int) ([]bitvec.Vector, [][]dbEntry) {
	var touched map[bitvec.Vector][]dbEntry
	if cut > 0 {
		touched = make(map[bitvec.Vector][]dbEntry)
		for _, op := range e.staged[:cut] {
			cur, ok := touched[op.sig]
			if !ok {
				cur = append([]dbEntry(nil), e.db[op.sig]...)
			}
			touched[op.sig] = applyOpEntries(cur, op)
		}
	}
	sigs := make([]bitvec.Vector, 0, len(e.db)+len(touched))
	entriesBySet := make([][]dbEntry, 0, len(e.db)+len(touched))
	for sig, entries := range e.db {
		if _, ok := touched[sig]; ok {
			continue
		}
		sigs = append(sigs, sig)
		entriesBySet = append(entriesBySet, entries)
	}
	for sig, entries := range touched {
		if len(entries) == 0 {
			continue
		}
		sigs = append(sigs, sig)
		entriesBySet = append(entriesBySet, entries)
	}
	return sigs, entriesBySet
}

// applyPrefix commits the first cut staged ops to the master database
// and compacts the log to the surviving suffix. Called with e.stagedMu
// held; in a background fold it must apply exactly the transform
// snapshotWithPrefix previewed.
func (e *Engine) applyPrefix(cut int) {
	for _, op := range e.staged[:cut] {
		entries := applyOpEntries(e.db[op.sig], op)
		if len(entries) == 0 {
			delete(e.db, op.sig)
		} else {
			e.db[op.sig] = entries
		}
	}
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

// bulkLoad is a batch of associations a synchronous consolidation commits
// after the staged log, in a snapshot's own shape: sigs[i] gains the
// entries of entries[i].
type bulkLoad struct {
	sigs    []bitvec.Vector
	entries [][]dbEntry
}

// applyBulk commits a bulk load to the master database, in order after
// the staged ops: a signature new to db takes the bulk's entry slice as
// is, an existing one has the entries appended. Called with e.stagedMu
// held.
func (e *Engine) applyBulk(bulk bulkLoad) {
	for i, sig := range bulk.sigs {
		entries := bulk.entries[i]
		if len(entries) == 0 {
			continue // db holds no empty entry lists
		}
		if cur := e.db[sig]; len(cur) > 0 {
			entries = append(cur, entries...)
		}
		e.db[sig] = entries
	}
}

// consolidateOnce runs one full consolidation. The synchronous form
// (background=false — the public Consolidate and LoadSnapshot) blocks
// submissions across all three phases, exactly like the pre-overlay
// engine. The background form defers the exclusive submitMu section to
// Phase C, so queries keep flowing — served by the old index plus the
// overlay — during the long Phase B build.
// consolidateMu serializes concurrent callers (explicit Consolidate vs
// the background goroutine).
//
// bulk is a batch of associations committed after the staged log inside
// Phase A and consolidated in the same pass (LoadSnapshot's path). Only
// the synchronous form is handed one: submissions are blocked for the
// whole pass, so the bulk never needs an overlay generation of its own
// — a snapshot-sized overlay would cost hundreds of MB of bit-sliced
// groups and maps just to be discarded at the swap.
func (e *Engine) consolidateOnce(background bool, bulk bulkLoad) error {
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

	// Phase A: cut the log and snapshot db ⊕ prefix. The synchronous form
	// commits the prefix and the bulk here and leaves nothing for Phase C
	// to apply. Background folds of a small delta take the incremental
	// path: only the touched signatures are captured, and Phase B splices
	// them into the old index's layout instead of re-partitioning the
	// world.
	e.stagedMu.Lock()
	cut := len(e.staged)
	if !background {
		if len(e.db) == 0 {
			e.db = make(map[bitvec.Vector][]dbEntry, cut+len(bulk.sigs))
		}
		e.applyPrefix(cut)
		e.applyBulk(bulk)
		cut = 0
	}
	old := e.idx.Load()
	incremental := background && incrementalEligible(old, cut)
	var idx *index
	if incremental {
		touched, hadSig := e.deltaPrefix(cut)
		e.stagedMu.Unlock()
		idx = e.buildIncrementalIndex(old, touched, hadSig)
		e.incFolds.Add(1)
	} else {
		sigs, entriesBySet := e.snapshotWithPrefix(cut)
		e.stagedMu.Unlock()
		// Phase B: the expensive host-side build — off the hot path in
		// background mode. Device memory is untouched here, so the old
		// index's buffers are not double-counted against the device
		// budget.
		idx = e.buildHostIndex(sigs, entriesBySet)
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
	e.applyPrefix(cut)
	old = e.idx.Load()
	e.idx.Store(&index{pt: &partitionTable{}})
	var degraded error
	if !incremental || !e.adoptDevices(idx, old) {
		// Full path: release the old index before the new one allocates
		// device memory, or the per-device stream and memory budgets
		// would be double-counted. The pipeline is drained and
		// submissions are blocked, so nothing references it.
		old.release()
		degraded = e.attachDevices(idx)
	}
	e.idx.Store(idx)
	if !e.cfg.DisableDeltaOverlay {
		e.delta.rebuild(e.db, e.staged)
	}
	e.stagedMu.Unlock()

	// Fresh per-partition hot-spot counters for the new generation, so
	// partition ids in the stats always refer to the live index.
	if e.obs.On {
		sizes := make([]int, len(idx.parts))
		for i := range idx.parts {
			sizes[i] = int(idx.parts[i].n)
		}
		e.obs.Parts.Reset(sizes)
	}

	if background {
		pause := time.Since(pauseStart)
		e.swapPauseNs.Store(int64(pause))
		e.obs.Delta.AutoConsolidations.Add(1)
		e.obs.Delta.SwapPause.Observe(int64(pause))
	}
	e.consolidateTime.Store(int64(time.Since(start)))
	return degraded
}

// deltaPrefix captures just the signatures touched by the first cut
// staged ops: the final entry list each touched signature should serve
// (empty = fully removed), and whether the live database had the
// signature before the prefix. Entry slices are cloned, so Phase B can
// use them lock-free. Called with e.stagedMu held.
func (e *Engine) deltaPrefix(cut int) (touched map[bitvec.Vector][]dbEntry, hadSig map[bitvec.Vector]bool) {
	touched = make(map[bitvec.Vector][]dbEntry, cut)
	hadSig = make(map[bitvec.Vector]bool, cut)
	for _, op := range e.staged[:cut] {
		cur, ok := touched[op.sig]
		if !ok {
			cur = append([]dbEntry(nil), e.db[op.sig]...)
			hadSig[op.sig] = len(cur) > 0
		}
		touched[op.sig] = applyOpEntries(cur, op)
	}
	return touched, hadSig
}

// incrementalEligible decides whether a background fold may splice the
// delta into the old index instead of rebuilding from scratch. The
// incremental form never re-partitions existing rows, so three kinds of
// drift accumulate until a full rebuild resets them: the delta itself
// must be small (else splicing approaches rebuild cost), emptied dud
// rows waste kernel lanes, and appended delta partitions dilute the
// Algorithm-1 balance.
func incrementalEligible(old *index, cut int) bool {
	if old.fullSets <= 0 || len(old.sets) == 0 || cut <= 0 {
		return false
	}
	if cut*4 > old.fullSets {
		return false
	}
	if old.dudRows*8 > old.fullSets {
		return false
	}
	if (len(old.sets)-old.fullSets)*4 > old.fullSets {
		return false
	}
	// The CSR patch map is cloned on every fold and probed per matched
	// row at reduce; once it covers a meaningful fraction of the rows, a
	// full rebuild that folds the patches back into a flat CSR is both
	// cheaper and faster to query.
	if len(old.patched)*8 > old.fullSets {
		return false
	}
	return true
}

// buildIncrementalIndex is the O(delta) Phase B: a new index whose
// existing rows keep their signature, partition, row order, transposed
// groups, and key CSR verbatim (aliased, not copied), with touched
// substitutions recorded in a per-row patch map the reduce consults
// first. A signature whose entry list emptied keeps its row as a "dud"
// — the kernel still matches it, the reduce finds zero keys — so no
// group retranspose or offset shift is ever needed. Genuinely new signatures are partitioned among
// themselves (same Algorithm 1, delta-sized input) and appended as
// fresh partitions; the partition table is rebuilt over the combined
// set, so routing sees them immediately.
//
// The sig→row map rides along from fold to fold (old.rowOf, stolen
// under consolidateMu) so only the first incremental fold pays the
// O(rows) map build. Duplicate signatures can exist (a dud plus a
// later re-add); the map always points at the live row — appends
// overwrite, and within one fold a signature resolves to a single
// final entry list, so the dud and its successor are never updated
// together.
func (e *Engine) buildIncrementalIndex(old *index, touched map[bitvec.Vector][]dbEntry, hadSig map[bitvec.Vector]bool) *index {
	rowOf := old.rowOf
	old.rowOf = nil
	if rowOf == nil {
		rowOf = make(map[bitvec.Vector]uint32, len(old.sets))
		for r, sig := range old.sets {
			if _, dup := rowOf[sig]; !dup || old.keyOff[r+1] > old.keyOff[r] {
				rowOf[sig] = uint32(r)
			}
		}
	}

	// Split the touched signatures into in-place row substitutions and
	// brand-new sets. A touched signature the database didn't have
	// (or — defensively — one the row map cannot place) becomes a new
	// row; its possible dud predecessor serves zero keys and stays
	// harmless.
	replaced := make(map[uint32][]dbEntry, len(touched))
	var newSigs []bitvec.Vector
	var newEntries map[bitvec.Vector][]dbEntry
	for sig, entries := range touched {
		if hadSig[sig] {
			if r, ok := rowOf[sig]; ok {
				replaced[r] = entries
				continue
			}
		}
		if len(entries) > 0 {
			if newEntries == nil {
				newEntries = make(map[bitvec.Vector][]dbEntry)
			}
			newSigs = append(newSigs, sig)
			newEntries[sig] = entries
		}
	}
	// Map iteration order is random; sort so the delta partitioning is
	// deterministic for a given op sequence.
	sort.Slice(newSigs, func(i, j int) bool { return bitvec.Less(newSigs[i], newSigs[j]) })

	idx := &index{devices: e.cfg.Devices}
	// Alias the old generation's row and group arrays instead of copying
	// them: the incremental build only ever appends (new sets start new
	// partitions, and each partition's transposed groups are
	// self-contained), so writing past the old length is invisible to
	// queries still served by the old index. With the slack capacity the
	// full build reserves, a steady-state fold's cost is the key-CSR
	// rewrite plus O(delta) — not an O(database) flat-array copy whose
	// allocation and GC marking would tax the query path it is supposed
	// to stay off.
	idx.sets = old.sets
	idx.groups = old.groups
	idx.runs = old.runs

	// The key CSR is aliased too: rows whose entry list changed land in
	// the patch map the reduce consults before the CSR, so a fold never
	// walks the full key table. The map is cloned copy-on-write — the
	// old generation keeps serving its own view while this build runs —
	// and incrementalEligible bounds its size, so the clone is O(delta
	// accumulated since the last full rebuild), not O(rows).
	idx.keyOff = old.keyOff
	idx.keys = old.keys
	idx.keyTags = old.keyTags
	idx.patched = make(map[uint32]patchedRow, len(old.patched)+len(replaced))
	for r, pe := range old.patched {
		idx.patched[r] = pe
	}
	duds := old.dudRows
	rowEmpty := func(r uint32) bool {
		if pe, ok := old.patched[r]; ok {
			return len(pe.keys) == 0
		}
		return old.keyOff[r+1] == old.keyOff[r]
	}
	for r, entries := range replaced {
		pe := patchedRow{keys: make([]Key, len(entries))}
		if e.cfg.ExactVerify {
			pe.tags = make([][]string, len(entries))
		}
		for i, en := range entries {
			pe.keys[i] = en.key
			if e.cfg.ExactVerify {
				pe.tags[i] = en.tags
			}
		}
		if len(entries) == 0 {
			if !rowEmpty(r) {
				duds++
			}
		} else if rowEmpty(r) {
			duds--
		}
		idx.patched[r] = pe
	}

	// Existing partitions keep their layout (a partition is immutable once
	// its index is published).
	idx.parts = append(make([]partition, 0, len(old.parts)+1), old.parts...)

	if len(newSigs) > 0 {
		idx.appendPartitions(newSigs, e.partition(newSigs), len(e.cfg.Devices), func(m int32, r uint32) {
			rowOf[newSigs[m]] = r
			idx.appendKeys(newEntries[newSigs[m]], e.cfg.ExactVerify)
		})
	}

	idx.pt, idx.maskless = buildPartitionTable(idx.parts)
	idx.hostBytes = hostBytesFor(idx)
	idx.fullSets = old.fullSets
	idx.dudRows = duds
	idx.rowOf = rowOf
	return idx
}

// adoptDevices is the O(delta) Phase C: instead of freeing the old
// generation's device state and re-uploading the whole index (a bus
// copy proportional to the database, which would dominate the swap
// pause), the new index adopts the old one's base shards, extent
// buffers and stream pool — all still valid, because the incremental
// build keeps every existing row's signature, row order, and transposed
// groups verbatim — and uploads only the partitions appended by this
// fold as one fresh extent buffer per device. Key rewrites need no
// device traffic at all: keys live host-side in the reduce stage.
// Returns false (having changed nothing) when the old index has no
// usable device state or the extent upload fails; the caller then takes
// the full release+attach path. Called with the pipeline drained and
// submissions blocked.
func (e *Engine) adoptDevices(idx, old *index) bool {
	nDev := len(idx.devices)
	if nDev == 0 {
		return true // CPU-only engine: nothing device-side to move
	}
	if len(old.devShards) != nDev {
		return false // old generation degraded to CPU: retry a full attach
	}

	// Upload the appended partitions, one extent per device that owns
	// any: each device gathers its own, extent-relative.
	newShards := make([]shard, nDev)
	fail := func() bool {
		for _, s := range newShards {
			s.free()
		}
		return false
	}
	for d, dev := range idx.devices {
		groups, runs := idx.gatherDevice(d, len(old.parts))
		if len(groups) == 0 {
			continue // pure key-substitution fold: no device traffic at all
		}
		var err error
		if newShards[d], err = uploadShard(dev, groups, runs); err != nil {
			return fail()
		}
	}
	for pi := len(old.parts); pi < len(idx.parts); pi++ {
		p := &idx.parts[pi]
		if newShards[p.dev].groups == nil {
			// Appended partition with zero rows cannot happen (specs are
			// non-empty), so every new partition's device has an extent.
			return fail()
		}
		p.ext = uint32(len(extsOf(old.devShardExts, p.dev)) + 1)
	}

	// The uploads landed; from here the adoption cannot fail. Fence the
	// old generation's attempt chains (GPU attempts that lost to a hedge
	// may still be enqueueing stream operations — safe, since every
	// buffer they reference is carried over, not freed) and steal its
	// device state.
	old.dispatching.Wait()
	idx.devShards, old.devShards = old.devShards, nil
	idx.devShardExts, old.devShardExts = old.devShardExts, nil
	if idx.devShardExts == nil {
		idx.devShardExts = make([][]shard, nDev)
	}
	for d := range newShards {
		if newShards[d].groups != nil {
			idx.devShardExts[d] = append(idx.devShardExts[d], newShards[d])
		}
	}
	idx.slots, old.slots = old.slots, nil
	idx.allStreams, old.allStreams = old.allStreams, nil
	return true
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
	if e.cfg.DisableDeltaOverlay {
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
// unless Config.DisableDeltaOverlay; stopped first thing in Close.
func (e *Engine) consolidatorLoop() {
	defer close(e.consolDone)
	for {
		select {
		case <-e.consolStop:
			return
		case <-e.consolKick:
		}
		for e.deltaOverThreshold() {
			err := e.consolidateOnce(true, bulkLoad{})
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
