// Twitterstream: the paper's headline scenario (§4.2) end to end.
//
// Generate a scaled Twitter-like workload — users with language-prefixed
// interest sets derived from followed publishers — load it into a
// two-GPU TagMatch engine, and stream tweets through match-unique,
// reporting throughput and latency. This is the application the paper
// sizes against Twitter's 6000 tweets/second.
//
//	go run ./examples/twitterstream [-users 50000] [-tweets 20000]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"tagmatch"
	"tagmatch/internal/obs"
	"tagmatch/internal/workload"
)

func main() {
	users := flag.Int("users", 50000, "number of users to generate")
	tweets := flag.Int("tweets", 20000, "number of tweets to stream")
	flag.Parse()

	gen, err := workload.New(workload.NewConfig(*users, 42))
	if err != nil {
		log.Fatal(err)
	}

	eng, err := tagmatch.New(tagmatch.Config{
		GPUs:              2,
		Threads:           4,
		BatchTimeout:      200 * time.Millisecond,
		RealisticGPUCosts: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Load every user's interests; keep a sample to synthesize tweets.
	var sample []workload.Interest
	start := time.Now()
	n := gen.Generate(*users, func(in workload.Interest) {
		eng.AddSet(in.Tags, tagmatch.Key(in.User))
		if len(sample) < 4096 {
			sample = append(sample, in)
		}
	})
	if err := eng.Consolidate(); err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("loaded %d interests (%d unique sets, %d partitions) in %v; consolidate took %v\n",
		n, st.UniqueSets, st.Partitions, time.Since(start).Round(time.Millisecond), st.LastConsolidate.Round(time.Millisecond))

	// Stream tweets: each is a sampled interest plus 2-4 trending tags.
	var lat obs.Histogram
	var delivered int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(7))
	streamStart := time.Now()
	for i := 0; i < *tweets; i++ {
		tweet := gen.Query(rng, sample[rng.Intn(len(sample))].Tags, -1)
		wg.Add(1)
		err := eng.SubmitUnique(tweet, func(r tagmatch.MatchResult) {
			lat.ObserveDuration(r.Latency)
			mu.Lock()
			delivered += int64(len(r.Keys))
			mu.Unlock()
			wg.Done()
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	eng.Drain()
	wg.Wait()
	elapsed := time.Since(streamStart)

	s := lat.Snapshot()
	fmt.Printf("streamed %d tweets in %v → %.0f tweets/s input, %.0f keys/s fan-out\n",
		*tweets, elapsed.Round(time.Millisecond),
		float64(*tweets)/elapsed.Seconds(), float64(delivered)/elapsed.Seconds())
	// p50 and p99 are within one histogram sub-bucket (<= 12.5%); max is exact.
	fmt.Printf("latency: median %v, p99 %v, max %v\n",
		s.QuantileDuration(0.5).Round(time.Microsecond), s.QuantileDuration(0.99).Round(time.Microsecond),
		time.Duration(s.Max).Round(time.Microsecond))
	fmt.Printf("for reference: Twitter's 2015 average was 6000 tweets/second\n")
}
