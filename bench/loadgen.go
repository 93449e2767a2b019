package main

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"tagmatch"
)

const (
	// closedWindow is the closed loop's in-flight bound.
	closedWindow = 1024
	// openWindow bounds what the open loop may have outstanding: 32 s of
	// backlog at 2,000 queries/s. Reaching it fails the run.
	openWindow = 1 << 16
	// stallLimit is the no-completion watchdog: requests outstanding and
	// nothing completed for this long fails the run instead of hanging.
	stallLimit = 5 * time.Second
	tick       = 100 * time.Millisecond
)

var epoch = time.Now()

// now is nanoseconds since the process started; every span and record
// uses it.
func now() int64 { return int64(time.Since(epoch)) }

// queryRec is the harness's record of one query: the span around the
// Submit call and the span from due time to callback.
type queryRec struct {
	due    int64 // open loop: scheduled send time; closed loop: = submit
	submit int64 // Submit called
	sent   int64 // Submit returned
	done   int64 // callback ran; 0 = never completed
	keys   int32
}

// slot is one position of the in-flight window. Its callback is built
// once, so the generator allocates nothing per query.
type slot struct {
	rec  *queryRec
	qi   int
	done func(tagmatch.MatchResult)
}

// loadgen drives one engine with one feeder goroutine.
type loadgen struct {
	eng     *tagmatch.Engine
	unique  bool
	rate    int // queries/s on an absolute schedule; 0 = closed loop
	queries [][]string
	// expect holds the oracle's answer for the sampled query indices;
	// nil on churn_mix, where the database moves under the run.
	expect map[int][]tagmatch.Key

	stall  time.Duration // the watchdog's limit
	slots  []slot
	free   chan int32
	chunks [][]queryRec // written by the feeder only

	issued     atomic.Int64
	completed  atomic.Int64
	rejected   atomic.Int64
	errored    atomic.Int64
	mismatches atomic.Int64
	checked    atomic.Int64
	stop       chan struct{}
	fed        chan struct{}
}

func newLoadgen(eng *tagmatch.Engine, cfg tagmatch.Config, w workloadSpec, queries [][]string, expect map[int][]tagmatch.Key) (*loadgen, error) {
	window := closedWindow
	if w.rate > 0 {
		window = openWindow
	}
	// A bounded window never fills the batches it waits on; without a
	// flush timeout nothing would ever complete.
	if cfg.BatchTimeout <= 0 {
		return nil, errors.New("loadgen: a bounded in-flight window needs BatchTimeout > 0, or batches never fill and the run deadlocks")
	}
	g := &loadgen{
		eng: eng, unique: w.unique, rate: w.rate, queries: queries, expect: expect,
		stall: stallLimit,
		slots: make([]slot, window),
		free:  make(chan int32, window), // one token per slot
		stop:  make(chan struct{}),
		fed:   make(chan struct{}),
	}
	for i := range g.slots {
		s := &g.slots[i]
		s.done = func(res tagmatch.MatchResult) { g.complete(int32(i), res) }
		g.free <- int32(i)
	}
	return g, nil
}

func (g *loadgen) complete(si int32, res tagmatch.MatchResult) {
	s := &g.slots[si]
	r := s.rec
	r.keys = int32(len(res.Keys))
	if res.Err != nil {
		g.errored.Add(1)
	} else if want, sampled := g.expect[s.qi]; sampled {
		got := slices.Clone(res.Keys)
		slices.Sort(got)
		g.checked.Add(1)
		if !slices.Equal(got, want) {
			g.mismatches.Add(1)
		}
	}
	r.done = now()
	g.completed.Add(1)
	g.free <- si
}

func (g *loadgen) rec(i int64) *queryRec {
	const chunk = 1 << 16
	if int(i/chunk) == len(g.chunks) {
		g.chunks = append(g.chunks, make([]queryRec, chunk))
	}
	return &g.chunks[i/chunk][i%chunk]
}

// feed submits queries until stopped: as slots free up (closed loop) or
// on the absolute schedule start + i/rate (open loop).
func (g *loadgen) feed(start int64) {
	defer close(g.fed)
	submit := g.eng.Submit
	if g.unique {
		submit = g.eng.SubmitUnique
	}
	for i := int64(0); ; i++ {
		var si int32
		r := g.rec(i)
		if g.rate > 0 {
			r.due = start + i*int64(time.Second)/int64(g.rate)
			if wait := r.due - now(); wait > 0 {
				select {
				case <-g.stop:
					return
				case <-time.After(time.Duration(wait)):
				}
			}
			select {
			case si = <-g.free:
			default: // backlog beyond openWindow: the run has failed
				g.rejected.Add(1)
				g.completed.Add(1)
				g.issued.Store(i + 1)
				return
			}
		} else {
			select {
			case <-g.stop:
				return
			case si = <-g.free:
			}
		}
		s := &g.slots[si]
		s.rec, s.qi = r, int(i%int64(len(g.queries)))
		r.submit = now()
		if g.rate == 0 {
			r.due = r.submit
		}
		err := submit(g.queries[s.qi], s.done)
		r.sent = now()
		if err != nil {
			g.rejected.Add(1)
			r.done = r.sent
			g.completed.Add(1)
			g.free <- si
		}
		g.issued.Store(i + 1)
		if g.rate > 0 {
			select {
			case <-g.stop:
				return
			default:
			}
		}
	}
}

// mark is what the harness reads at a segment boundary.
type mark struct {
	t         int64
	completed int64
	cpu       time.Duration
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseHooks let the caller act on the harness's clock without a thread
// of its own: atBoundary(k) runs at the k-th mark (0 = end of warm-up),
// onTick every 100 ms.
type phaseHooks struct {
	atBoundary func(k int)
	onTick     func()
}

// run drives the engine through a warm-up and n back-to-back segments on
// one continuous load, then stops the feeder and waits for the window to
// drain. It returns the n+1 marks that bound the segments. The watchdog
// returns an error if nothing completes for stallLimit while requests
// are outstanding.
func (g *loadgen) run(warmup, segment time.Duration, n int, hooks phaseHooks) ([]mark, error) {
	start := now()
	go g.feed(start)

	lastCount, lastChange := int64(0), start
	watchdog := func() error {
		if c := g.completed.Load(); c != lastCount {
			lastCount, lastChange = c, now()
		} else if c == g.issued.Load() {
			lastChange = now() // nothing outstanding
		} else if now()-lastChange > int64(g.stall) {
			return fmt.Errorf("loadgen: no completion for %v with requests outstanding (%d completed)", g.stall, c)
		}
		return nil
	}
	sleepUntil := func(t int64) error {
		for {
			left := t - now()
			if left <= 0 {
				return nil
			}
			time.Sleep(min(time.Duration(left), tick))
			if err := watchdog(); err != nil {
				return err
			}
			if hooks.onTick != nil {
				hooks.onTick()
			}
		}
	}

	marks := make([]mark, 0, n+1)
	var err error
	for k := 0; k <= n && err == nil; k++ {
		err = sleepUntil(start + int64(warmup) + int64(k)*int64(segment))
		marks = append(marks, mark{t: now(), completed: g.completed.Load(), cpu: processCPU()})
		if hooks.atBoundary != nil && err == nil {
			hooks.atBoundary(k)
		}
	}
	close(g.stop)
	<-g.fed
	for err == nil && g.completed.Load() < g.issued.Load() {
		time.Sleep(time.Millisecond)
		err = watchdog()
	}
	return marks, err
}

// records returns the queries issued so far, in issue order. Valid once
// run has returned.
func (g *loadgen) records() []queryRec {
	n := g.issued.Load()
	out := make([]queryRec, 0, n)
	for _, c := range g.chunks {
		out = append(out, c[:min(int64(len(c)), n-int64(len(out)))]...)
	}
	return out
}

// writer applies the churn plan at a fixed rate on an absolute schedule
// from one goroutine, timing every AddSet/RemoveSet call.
type writer struct {
	eng  *tagmatch.Engine
	rate int
	plan []churnOp

	stop chan struct{}
	done chan struct{}
	at   []int64 // call start, per applied op
	took []int64 // call duration in ns, per applied op
}

func startWriter(eng *tagmatch.Engine, rate int, plan []churnOp) *writer {
	w := &writer{eng: eng, rate: rate, plan: plan, stop: make(chan struct{}), done: make(chan struct{}),
		at: make([]int64, 0, len(plan)), took: make([]int64, 0, len(plan))}
	go w.loop(now())
	return w
}

func (w *writer) loop(start int64) {
	defer close(w.done)
	for i, op := range w.plan {
		due := start + int64(i)*int64(time.Second)/int64(w.rate)
		select {
		case <-w.stop:
			return
		case <-time.After(time.Duration(max(due-now(), 0))):
		}
		t0 := now()
		if op.add {
			w.eng.AddSet(op.tags, op.key)
		} else {
			w.eng.RemoveSet(op.tags, op.key)
		}
		w.at = append(w.at, t0)
		w.took = append(w.took, now()-t0)
	}
}

// halt stops the writer and returns the operations it applied.
func (w *writer) halt() []churnOp {
	close(w.stop)
	<-w.done
	return w.plan[:len(w.at)]
}
