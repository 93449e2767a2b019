// Command tagmatch-loadgen drives a running tagmatch-server with the
// synthetic Twitter-like workload: it loads user interests over HTTP,
// consolidates, then streams tweet queries from concurrent clients and
// reports end-to-end service throughput and latency.
//
// With -churn-rate set, a churn client runs alongside the query phase,
// streaming live updates through POST /sets and DELETE /sets at the
// requested rate; -churn-ratio picks the fraction of those that are
// removes of previously churned associations. This exercises the
// server's delta overlay and background consolidation under load.
//
// Usage:
//
//	tagmatch-server &
//	tagmatch-loadgen -server http://localhost:8080 -users 20000 -queries 5000 -clients 4
//	tagmatch-loadgen -churn-rate 500 -churn-ratio 0.5   # live updates during queries
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"tagmatch"
	"tagmatch/internal/httpserver"
	"tagmatch/internal/obs"
	"tagmatch/internal/workload"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "tagmatch-server base URL")
	users := flag.Int("users", 20000, "users to load")
	queries := flag.Int("queries", 5000, "tweet queries to stream")
	clients := flag.Int("clients", 4, "concurrent query clients")
	seed := flag.Int64("seed", 42, "workload seed")
	unique := flag.Bool("unique", true, "use match-unique (vs match)")
	churnRate := flag.Float64("churn-rate", 0,
		"live updates per second streamed during the query phase (0 = none)")
	churnRatio := flag.Float64("churn-ratio", 0.5,
		"fraction of churn ops that remove a previously churned association")
	flag.Parse()

	gen, err := workload.New(workload.NewConfig(*users, *seed))
	if err != nil {
		log.Fatal(err)
	}
	httpc := &http.Client{Timeout: 60 * time.Second}

	post := func(path string, body any, out any) error {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := httpc.Post(*server+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
		}
		if out != nil {
			return json.NewDecoder(resp.Body).Decode(out)
		}
		return nil
	}

	// Phase 1: load interests.
	log.Printf("loading interests for %d users ...", *users)
	start := time.Now()
	var sample []workload.Interest
	n := gen.Generate(*users, func(in workload.Interest) {
		if err := post("/sets", httpserver.SetRequest{Tags: in.Tags, Key: tagmatch.Key(in.User)}, nil); err != nil {
			log.Fatal(err)
		}
		if len(sample) < 4096 {
			sample = append(sample, in)
		}
	})
	log.Printf("loaded %d interests in %v", n, time.Since(start).Round(time.Millisecond))

	var cons httpserver.ConsolidateResponse
	if err := post("/consolidate", struct{}{}, &cons); err != nil {
		log.Fatal(err)
	}
	log.Printf("consolidated: %d sets, %d partitions (%s)", cons.Sets, cons.Partitions, cons.Elapsed)

	// Optional churn client: streams live adds and removes through the
	// REST live-update endpoints for the duration of the query phase.
	doSet := func(method string, req httpserver.SetRequest) error {
		raw, err := json.Marshal(req)
		if err != nil {
			return err
		}
		hreq, err := http.NewRequest(method, *server+"/sets", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := httpc.Do(hreq)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s /sets: HTTP %d", method, resp.StatusCode)
		}
		return nil
	}
	churnStop := make(chan struct{})
	var churnOps int64
	var churnWG sync.WaitGroup
	if *churnRate > 0 {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			rng := rand.New(rand.NewSource(*seed + 7919))
			tick := time.NewTicker(time.Duration(float64(time.Second) / *churnRate))
			defer tick.Stop()
			next := tagmatch.Key(10_000_000)
			var pool []httpserver.SetRequest
			for {
				select {
				case <-churnStop:
					return
				case <-tick.C:
				}
				if len(pool) > 0 && rng.Float64() < *churnRatio {
					i := rng.Intn(len(pool))
					if err := doSet(http.MethodDelete, pool[i]); err != nil {
						log.Fatal(err)
					}
					pool[i] = pool[len(pool)-1]
					pool = pool[:len(pool)-1]
				} else {
					req := httpserver.SetRequest{
						Tags: sample[rng.Intn(len(sample))].Tags,
						Key:  next,
					}
					next++
					if err := doSet(http.MethodPost, req); err != nil {
						log.Fatal(err)
					}
					pool = append(pool, req)
				}
				churnOps++
			}
		}()
	}

	// Phase 2: stream queries from concurrent clients.
	endpoint := "/match"
	if *unique {
		endpoint = "/match-unique"
	}
	var lat obs.Histogram
	var delivered int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	per := (*queries + *clients - 1) / *clients
	qStart := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(c)))
			for i := 0; i < per; i++ {
				tweet := gen.Query(rng, sample[rng.Intn(len(sample))].Tags, -1)
				t0 := time.Now()
				var resp httpserver.MatchResponse
				if err := post(endpoint, httpserver.MatchRequest{Tags: tweet}, &resp); err != nil {
					log.Fatal(err)
				}
				lat.ObserveDuration(time.Since(t0))
				mu.Lock()
				delivered += int64(resp.Count)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	el := time.Since(qStart)
	close(churnStop)
	churnWG.Wait()
	total := per * *clients
	s := lat.Snapshot()
	fmt.Printf("%d %s queries from %d clients in %v\n", total, endpoint, *clients, el.Round(time.Millisecond))
	if *churnRate > 0 {
		fmt.Printf("churn: %d live updates (%.0f/s, remove ratio %.2f)\n",
			churnOps, float64(churnOps)/el.Seconds(), *churnRatio)
	}
	fmt.Printf("throughput: %.0f queries/s, fan-out %.0f keys/s\n",
		float64(total)/el.Seconds(), float64(delivered)/el.Seconds())
	// p50 and p99 are within one histogram sub-bucket (<= 12.5%); max is exact.
	fmt.Printf("latency over HTTP: median %v, p99 %v, max %v\n",
		s.QuantileDuration(0.5).Round(time.Microsecond), s.QuantileDuration(0.99).Round(time.Microsecond),
		time.Duration(s.Max).Round(time.Microsecond))
}
