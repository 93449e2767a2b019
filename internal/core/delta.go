package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"tagmatch/internal/bitvec"
)

// delta is the match-visible overlay over the staged operation log: a
// CPU-side bit-sliced mini-index holding the adds staged since the last
// consolidation, plus the tombstones their removes cast over the main
// index. It makes AddSet/RemoveSet take effect on the next query instead
// of the next Consolidate (the batch-dynamic shape: absorb updates into
// a small dynamic structure on the hot path, fold them into the main
// index asynchronously).
//
// Invariant: the overlay is a pure function of (live index, staged) and
// is updated in the same stagedMu critical section that appends the op,
// so matching against (main index + overlay) always equals matching
// against the database Consolidate would produce from the same log.
// Concretely, for every (signature, key):
//
//	live multiplicity = mainCount - tombs[(sig,key)] + liveOverlayAdds
//
// where absorbRemove keeps 0 <= tombs <= mainCount and cancels overlay
// adds oldest-first — exactly the entry Consolidate's first-match
// removal would drop, since main entries precede appended adds in the
// replay order. A key added then removed in the overlay therefore never
// surfaces, and a remove with no target is a no-op both here and at
// replay (exactly-once).
type delta struct {
	mu sync.RWMutex

	// adds mirrors the staged add ops in order: adds[i] occupies lane
	// i%64 of groups[i/64] (lanes are assigned once, so a cancelled add
	// stays in place but is marked dead and masked out of lookups via
	// dead[i/64]). groups reuses the Algorithm-2 bit-sliced layout: the
	// column-transposed LaneBlock plus the running member-intersection
	// Gate, maintained incrementally as lanes fill.
	adds   []deltaAdd
	groups []bitvec.SlicedGroup
	dead   []uint64

	// tombs counts, per (signature, key), how many main-index entries
	// the staged removes suppress; addByKey lists the live overlay adds
	// per (signature, key), oldest first, so a remove cancels the same
	// add a Consolidate replay would.
	tombs    map[tombKey]int
	addByKey map[tombKey][]int32

	// addsLive/tombsLive let the query hot paths skip the overlay with
	// one atomic load when it is empty; sinceNs is the wall clock when
	// the overlay last went from empty to non-empty (the age gauge's
	// reference point, reset by every consolidation swap).
	addsLive  atomic.Int64
	tombsLive atomic.Int64
	sinceNs   atomic.Int64
}

// deltaAdd is one staged, immediately-matchable set addition.
type deltaAdd struct {
	sig  bitvec.Vector
	key  Key
	tags []string // retained only in ExactVerify mode
	dead bool     // cancelled by a later staged remove
}

// tombKey identifies a (signature, key) association — the granularity at
// which removes suppress matches.
type tombKey struct {
	sig bitvec.Vector
	key Key
}

func (d *delta) init() {
	d.tombs = make(map[tombKey]int)
	d.addByKey = make(map[tombKey][]int32)
}

// absorb folds one freshly staged op into the overlay. Called with
// e.stagedMu held, immediately after the op was appended to e.staged, so
// the overlay and the op log stay in lockstep; idx is the live index,
// which the same lock keeps from being swapped meanwhile.
func (d *delta) absorb(idx *index, op stagedOp) {
	d.mu.Lock()
	d.absorbLocked(idx, op)
	d.mu.Unlock()
}

func (d *delta) absorbLocked(idx *index, op stagedOp) {
	if op.remove {
		d.absorbRemoveLocked(idx, op)
	} else {
		d.absorbAddLocked(op)
	}
}

func (d *delta) absorbAddLocked(op stagedOp) {
	i := len(d.adds)
	d.adds = append(d.adds, deltaAdd{sig: op.sig, key: op.key, tags: op.tags})
	lane := i % 64
	if lane == 0 {
		// A new group's gate starts as its first member and narrows to
		// the member intersection as lanes fill. Dead lanes stay in the
		// intersection: that only keeps the gate smaller, and the gate
		// test needs gate ⊆ m for every live member m.
		d.groups = append(d.groups, bitvec.SlicedGroup{Gate: op.sig})
		d.dead = append(d.dead, 0)
	} else {
		g := &d.groups[len(d.groups)-1]
		g.Gate = g.Gate.And(op.sig)
	}
	d.groups[len(d.groups)-1].SetLane(lane, op.sig)
	tk := tombKey{sig: op.sig, key: op.key}
	d.addByKey[tk] = append(d.addByKey[tk], int32(i))
	if d.addsLive.Add(1)+d.tombsLive.Load() == 1 {
		d.sinceNs.Store(time.Now().UnixNano())
	}
}

func (d *delta) absorbRemoveLocked(idx *index, op stagedOp) {
	tk := tombKey{sig: op.sig, key: op.key}
	// Classify against the replay order Consolidate uses: main-index
	// entries precede appended overlay adds, and the remove drops the
	// first occurrence. So while an unsuppressed main entry remains, the
	// remove becomes a tombstone; otherwise it cancels the oldest live
	// overlay add; with neither it is a no-op (as at replay). The main
	// entries are those the live index serves for the signature.
	mainCount := 0
	_, main := idx.liveRow(op.sig)
	for _, k := range main.keys {
		if k == op.key {
			mainCount++
		}
	}
	if d.tombs[tk] < mainCount {
		d.tombs[tk]++
		if d.tombsLive.Add(1)+d.addsLive.Load() == 1 {
			d.sinceNs.Store(time.Now().UnixNano())
		}
		return
	}
	live := d.addByKey[tk]
	if len(live) == 0 {
		return
	}
	i := live[0]
	if len(live) == 1 {
		delete(d.addByKey, tk)
	} else {
		d.addByKey[tk] = live[1:]
	}
	d.adds[i].dead = true
	d.dead[i/64] |= 1 << (uint(i) % 64)
	d.addsLive.Add(-1)
}

// match runs the Algorithm-2 subset test over the overlay's bit-sliced
// groups and appends the matching live keys to dst: the per-group gate
// discards 64 sets with one three-word test, then the column walk yields
// the subset lanes, masked by the group's dead lanes.
func (d *delta) match(sig bitvec.Vector, tags map[string]struct{}, dst []Key) []Key {
	d.mu.RLock()
	for gi := range d.groups {
		g := &d.groups[gi]
		if !bitvec.AndNotIsZero(g.Gate, sig) {
			continue
		}
		lanes := g.SubsetLanes(sig) &^ d.dead[gi]
		for lanes != 0 {
			lane := bits.TrailingZeros64(lanes)
			lanes &= lanes - 1
			a := &d.adds[gi*64+lane]
			if tags != nil && !tagsContained(a.tags, tags) {
				continue
			}
			dst = append(dst, a.key)
		}
	}
	d.mu.RUnlock()
	return dst
}

// rebuild resets the overlay and replays the surviving staged suffix
// against the index just swapped in. Called with e.stagedMu held during
// the consolidation swap, after the consolidated prefix left the log —
// the overlay is purely derived state, so rebuilding it from (live
// index, staged) restores the invariant for the new generation.
func (d *delta) rebuild(idx *index, staged []stagedOp) {
	d.mu.Lock()
	// Reuse the backing arrays across steady-state folds, but release
	// them when they dwarf the surviving suffix: a bulk load absorbed
	// through the overlay leaves multi-million-lane group and map
	// capacity behind, and [:0]-style reuse would pin hundreds of MB
	// for the GC to mark on every cycle thereafter.
	if cap(d.adds) > 4096 && cap(d.adds) > 4*len(staged) {
		d.adds, d.groups, d.dead = nil, nil, nil
		d.tombs = make(map[tombKey]int)
		d.addByKey = make(map[tombKey][]int32)
	} else {
		d.adds = d.adds[:0]
		d.groups = d.groups[:0]
		d.dead = d.dead[:0]
		clear(d.tombs)
		clear(d.addByKey)
	}
	d.addsLive.Store(0)
	d.tombsLive.Store(0)
	for _, op := range staged {
		d.absorbLocked(idx, op)
	}
	if len(staged) == 0 {
		d.sinceNs.Store(0)
	} else {
		d.sinceNs.Store(time.Now().UnixNano())
	}
	d.mu.Unlock()
}

// ageNs is the delta-age gauge: nanoseconds since the overlay last
// became non-empty, 0 while it is empty.
func (d *delta) ageNs() float64 {
	ns := d.sinceNs.Load()
	if ns == 0 || d.addsLive.Load()+d.tombsLive.Load() == 0 {
		return 0
	}
	return float64(time.Since(time.Unix(0, ns)))
}

// deltaMatch merges the overlay's hits for one query into its key set,
// alongside whatever the main-index batches will deliver. It runs at the
// end of the preprocess stage, before the routing guard drops, so the
// overlay keys are in place before the query can complete; match-unique's
// dedup then collapses any key present in both overlay and main index.
func (e *Engine) deltaMatch(w *routeState, q *query) {
	if e.delta.addsLive.Load() == 0 {
		return
	}
	w.dkeys = e.delta.match(q.sig, q.tags, w.dkeys[:0])
	if len(w.dkeys) == 0 {
		return
	}
	e.obs.Delta.OverlayMatches.Add(1)
	e.obs.Delta.OverlayKeys.Add(int64(len(w.dkeys)))
	if q.trace != nil {
		q.trace.Event("delta-keys", -1, int64(len(w.dkeys)))
	}
	q.mu.Lock()
	q.keys = append(q.keys, w.dkeys...)
	q.mu.Unlock()
}

// tombsForReduce pins the overlay's tombstone map for one reduce pass:
// when live tombstones exist it returns the map with the overlay's read
// lock held — the caller must e.delta.mu.RUnlock() after its last visit
// — else nil with no lock taken. The read lock is dropped before any
// query completes, so a completion callback staging new ops cannot
// self-deadlock against the overlay's write lock.
func (e *Engine) tombsForReduce() map[tombKey]int {
	if e.delta.tombsLive.Load() == 0 {
		return nil
	}
	e.delta.mu.RLock()
	if e.delta.tombsLive.Load() == 0 {
		e.delta.mu.RUnlock()
		return nil
	}
	return e.delta.tombs
}

// tombSuppressed reports whether entry j of a set's key run (its CSR
// slice) is hidden by the overlay's tombstones: the first
// tombs[(sig,key)] occurrences of the key within the run are suppressed.
// That multiset equals what Consolidate's first-match (swap-with-last)
// removal leaves — removal reorders survivors, but match output is a
// multiset and match-unique dedups, so order is immaterial. The
// occurrence scan is quadratic in the set's entry count, which is tiny
// (most sets carry one key) and only paid while tombstones are pending.
func (e *Engine) tombSuppressed(sig bitvec.Vector, keys []Key, j int, tombs map[tombKey]int) bool {
	k := keys[j]
	n := tombs[tombKey{sig: sig, key: k}]
	if n == 0 {
		return false
	}
	occ := 0
	for jj := 0; jj < j; jj++ {
		if keys[jj] == k {
			occ++
		}
	}
	if occ < n {
		e.obs.Delta.TombSuppressed.Add(1)
		return true
	}
	return false
}
