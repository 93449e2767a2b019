package obs

import (
	"sort"
	"sync/atomic"
)

// PartitionCounters accumulates the hot-spot statistics of one partition
// of the consolidated index. All fields are atomic so the pipeline can
// update them lock-free from any stage.
type PartitionCounters struct {
	QueriesRouted   atomic.Int64 // routed entries cut into a segment of this partition
	BatchesFull     atomic.Int64 // segments in batches of a pass started because the log was full
	BatchesTimedOut atomic.Int64 // segments in batches of a pass the flush timeout started
	BatchesFlushed  atomic.Int64 // segments in batches of an explicit flush/drain
	Pairs           atomic.Int64 // (query,set) pairs produced
	Overflows       atomic.Int64 // GPU result-buffer overflows (CPU fallback)
	PrefilterBlocks atomic.Int64 // thread blocks that ran the prefilter
	PrefilterPruned atomic.Int64 // blocks where the prefilter rejected every query
}

// PartitionSnapshot is the exported view of one partition's counters;
// WriteProm exports the hottest partitions' labeled {partition=id}. The
// batch counters count batches holding the partition by what started
// their flush pass, not by whether they filled: a tick-started pass
// still cuts full batches.
type PartitionSnapshot struct {
	ID              int   `json:"id"`
	Sets            int   `json:"sets"` // partition size (tag sets)
	QueriesRouted   int64 `json:"queries_routed" prom:"tagmatch_partition_queries_routed_total" help:"Queries routed to the partition's batches."`
	BatchesFull     int64 `json:"batches_full" prom:"tagmatch_partition_batches_full_total" help:"Batches holding the partition cut by a flush pass a worker's kick started (the log held BatchSize entries per partition); counts what started the pass, not whether the batch filled."`
	BatchesTimedOut int64 `json:"batches_timed_out" prom:"tagmatch_partition_batches_timeout_total" help:"Batches holding the partition cut by a flush pass the flusher's tick started (the oldest logged entry had waited BatchTimeout); such a pass still cuts full batches."`
	BatchesFlushed  int64 `json:"batches_flushed" prom:"tagmatch_partition_batches_flushed_total" help:"Batches dispatched by explicit flush/drain."`
	Pairs           int64 `json:"pairs" prom:"tagmatch_partition_pairs_total" help:"(query,set) pairs produced by the partition."`
	Overflows       int64 `json:"overflows" prom:"tagmatch_partition_overflows_total" help:"Result-buffer overflows (CPU fallback) in the partition."`
	PrefilterBlocks int64 `json:"prefilter_blocks" prom:"tagmatch_partition_prefilter_blocks_total" help:"Thread blocks that evaluated the Algorithm 4 prefilter."`
	PrefilterPruned int64 `json:"prefilter_pruned" prom:"tagmatch_partition_prefilter_pruned_total" help:"Blocks where the prefilter rejected the whole batch."`
}

// partitionSet is one generation of per-partition counters, swapped
// wholesale at Consolidate so stats always line up with the live index.
type partitionSet struct {
	counters []PartitionCounters
	sizes    []int
}

// Partitions holds the per-partition counters of the current index
// generation. Reset installs a fresh generation; Get is bounds-checked
// against the generation it observes, so a stage racing a consolidate
// either updates the old generation (about to be discarded) or the new
// one — never crashes.
type Partitions struct {
	cur atomic.Pointer[partitionSet]
}

// Reset installs fresh counters for n partitions with the given sizes
// (sizes may be nil).
func (p *Partitions) Reset(sizes []int) {
	ps := &partitionSet{
		counters: make([]PartitionCounters, len(sizes)),
		sizes:    sizes,
	}
	p.cur.Store(ps)
}

// Get returns the counters of partition pid, or nil when out of range
// (e.g. before the first Consolidate).
func (p *Partitions) Get(pid uint32) *PartitionCounters {
	ps := p.cur.Load()
	if ps == nil || int(pid) >= len(ps.counters) {
		return nil
	}
	return &ps.counters[pid]
}

// Len returns the number of partitions in the current generation.
func (p *Partitions) Len() int {
	ps := p.cur.Load()
	if ps == nil {
		return 0
	}
	return len(ps.counters)
}

// Snapshot returns every partition's counters in id order.
func (p *Partitions) Snapshot() []PartitionSnapshot {
	ps := p.cur.Load()
	if ps == nil {
		return nil
	}
	out := make([]PartitionSnapshot, len(ps.counters))
	for i := range ps.counters {
		c := &ps.counters[i]
		out[i] = PartitionSnapshot{
			ID:              i,
			QueriesRouted:   c.QueriesRouted.Load(),
			BatchesFull:     c.BatchesFull.Load(),
			BatchesTimedOut: c.BatchesTimedOut.Load(),
			BatchesFlushed:  c.BatchesFlushed.Load(),
			Pairs:           c.Pairs.Load(),
			Overflows:       c.Overflows.Load(),
			PrefilterBlocks: c.PrefilterBlocks.Load(),
			PrefilterPruned: c.PrefilterPruned.Load(),
		}
		if i < len(ps.sizes) {
			out[i].Sets = ps.sizes[i]
		}
	}
	return out
}

// Hottest returns the k partitions with the most routed queries,
// descending — the skew view of Algorithm 1's splits.
func (p *Partitions) Hottest(k int) []PartitionSnapshot {
	all := p.Snapshot()
	sort.Slice(all, func(i, j int) bool {
		if all[i].QueriesRouted != all[j].QueriesRouted {
			return all[i].QueriesRouted > all[j].QueriesRouted
		}
		return all[i].ID < all[j].ID
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}
