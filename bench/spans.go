package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"tagmatch/internal/obs"
)

// span is one call the benchmark made, timed from outside.
type span struct {
	name, parent string
	start, end   int64 // ns since epoch
}

// spanLog collects the spans around set-up, probe and phase calls. The
// per-query and per-update spans are not copied here: the generator's
// records hold their four timestamps and are written out as spans.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// time runs f inside a span and returns its duration in seconds.
func (l *spanLog) time(name, parent string, f func()) float64 {
	t0 := now()
	f()
	t1 := now()
	l.mu.Lock()
	l.spans = append(l.spans, span{name, parent, t0, t1})
	l.mu.Unlock()
	return float64(t1-t0) / 1e9
}

// keptTraces caps the engine span trees written to the trace file; at
// TraceEvery 64 a run samples thousands, each with hundreds of spans.
const keptTraces = 256

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// workload returns the first shared spans and those from index first on:
// what one workload's trace file holds of the log.
func (l *spanLog) workload(shared, first int) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Concat(l.spans[:shared], l.spans[first:])
}

// traceSink takes the engine's sampled traces beyond its 128-entry ring:
// drained every tick, de-duplicated by trace id. Every trace enters the
// self-time totals; the first keptTraces are kept whole.
type traceSink struct {
	seen   map[uint64]bool
	traces []obs.TraceRecord
	self   map[string]*selfTime
}

func newTraceSink() *traceSink {
	return &traceSink{seen: map[uint64]bool{}, self: map[string]*selfTime{}}
}

func (s *traceSink) drain(tr *obs.Tracer) {
	for _, rec := range tr.Recent() {
		if s.seen[rec.ID] {
			continue
		}
		s.seen[rec.ID] = true
		s.addSelfTime(rec)
		if len(s.traces) < keptTraces {
			s.traces = append(s.traces, rec)
		}
	}
}

type interval struct{ lo, hi int64 }

// unionMinus returns the length of the union of keep that no interval of
// cut covers.
func unionMinus(keep, cut []interval) int64 {
	type edge struct {
		at   int64
		k, c int // change in open keep / cut intervals
	}
	var edges []edge
	for _, iv := range keep {
		edges = append(edges, edge{iv.lo, 1, 0}, edge{iv.hi, -1, 0})
	}
	for _, iv := range cut {
		edges = append(edges, edge{iv.lo, 0, 1}, edge{iv.hi, 0, -1})
	}
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
	var total, last int64
	k, c := 0, 0
	for _, e := range edges {
		if k > 0 && c == 0 {
			total += e.at - last
		}
		k, c, last = k+e.k, c+e.c, e.at
	}
	return total
}

// selfTime is a layer's own time in the engine's span tree: per trace,
// the time its spans cover minus the part their child spans cover, summed
// over traces.
type selfTime struct {
	Name   string `json:"name"`
	Spans  int    `json:"spans"`
	SelfNs int64  `json:"self_ns"`
	SpanNs int64  `json:"span_ns"`
}

func (s *traceSink) addSelfTime(tr obs.TraceRecord) {
	own, children := map[string][]interval{}, map[string][]interval{}
	for _, sp := range tr.Spans {
		iv := interval{int64(sp.Start), int64(sp.Start + sp.Wait + sp.Dur)}
		own[sp.Name] = append(own[sp.Name], iv)
		children[sp.Parent] = append(children[sp.Parent], iv)
	}
	// The root span is implicit: the trace's whole duration.
	own["query"] = []interval{{0, int64(tr.End)}}
	for name, ivs := range own {
		st := s.self[name]
		if st == nil {
			st = &selfTime{Name: name}
			s.self[name] = st
		}
		st.Spans += len(ivs)
		st.SpanNs += unionMinus(ivs, nil)
		st.SelfNs += unionMinus(ivs, children[name])
	}
}

// selfTimes returns the totals, largest self time first.
func (s *traceSink) selfTimes() []selfTime {
	out := make([]selfTime, 0, len(s.self))
	for _, st := range s.self {
		out = append(out, *st)
	}
	slices.SortFunc(out, func(a, b selfTime) int { return cmp.Compare(b.SelfNs, a.SelfNs) })
	return out
}

// traceFile is bench/out/trace_<workload>.json.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Epoch    time.Time `json:"epoch"` // start_ns/end_ns count from here
	// SelfTime is per engine span name, over all SampledQueries; the
	// first keptTraces of their span trees follow.
	SampledQueries int               `json:"sampled_queries"`
	SelfTime       []selfTime        `json:"self_time"`
	EngineTraces   []obs.TraceRecord `json:"engine_traces"`
}

// writeTrace writes the traced phase's spans: the file header with the
// engine's sampled span trees, then one line per benchmark span.
func writeTrace(dir string, hdr traceFile, calls []span, queries []queryRec, w *writer) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace_"+hdr.Workload+".json"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	head, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	// Splice the spans array into the header object.
	bw.Write(head[:len(head)-1])
	bw.WriteString(`,"spans":[` + "\n")
	first := true
	emit := func(name, parent string, id, start, end int64) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, `{"name":%q,"parent":%q,"query":%d,"start_ns":%d,"end_ns":%d}`, name, parent, id, start, end)
	}
	for _, s := range calls {
		emit(s.name, s.parent, -1, s.start, s.end)
	}
	for i, r := range queries {
		emit("query", "traced_phase", int64(i), r.due, r.done)
		emit("submit_call", "query", int64(i), r.submit, r.sent)
	}
	if w != nil {
		for i, at := range w.at {
			emit("update_call", "traced_phase", int64(i), at, at+w.took[i])
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
