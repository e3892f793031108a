package main

import (
	"strings"
	"sync"
	"time"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/pool"
	"repro/internal/rt"
)

// Layer probes time calls into one layer's public functions directly, at the
// geometry the workloads use, so a change to that layer shows without the
// layers above it.

// probeN is the trip count of the core and pool probes: one EP loop of the
// apps workload.
const probeN = 25_000

// forkJoinUS is the median wall time of one ParallelFor of a 2-iteration
// loop on the 1B+1S platform (Team fork/join with almost no work).
func forkJoinUS(pl *amp.Platform) (float64, error) {
	team, err := rt.NewTeam(rt.TeamConfig{Platform: pl, NThreads: nWorkers, Binding: amp.BindBS, Profile: profEP})
	if err != nil {
		return 0, err
	}
	var sink [nWorkers]perWorker
	xs := make([]float64, 0, 2000)
	for i := 0; i < cap(xs); i++ {
		t0 := time.Now()
		if _, err := team.ParallelForChunkedStats(2, func(tid int, lo, hi int64) { sink[tid].v += hi - lo }); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0))/1e3)
	}
	return median(xs), nil
}

// loopInfo is the scheduler-facing description of one apps loop: two
// workers, worker 0 on the big core type, worker 1 on the small one (BS).
func loopInfo(pl *amp.Platform, n int64) core.LoopInfo {
	return core.LoopInfo{NI: n, NThreads: nWorkers, NumTypes: len(pl.Clusters),
		TypeOf: func(tid int) int { return tid }, TypeDist: pl.TypeDist()}
}

// schedNextNS drives Schedule.Factory() and Next from two goroutines over
// one loop of probeN iterations and returns the mean wall time per Next
// call, averaged over the two workers (the best of three loops).
func schedNextNS(pl *amp.Platform, s rt.Schedule) (float64, error) {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		sched, err := s.Factory()(loopInfo(pl, probeN))
		if err != nil {
			return 0, err
		}
		base := time.Now()
		var per [nWorkers]float64
		var wg sync.WaitGroup
		for tid := 0; tid < nWorkers; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				t0 := time.Now()
				calls := 0
				for {
					calls++
					if _, ok := sched.Next(tid, int64(time.Since(base))); !ok {
						break
					}
				}
				per[tid] = float64(time.Since(t0)) / float64(calls)
			}(tid)
		}
		wg.Wait()
		ns := (per[0] + per[1]) / 2
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// kindName turns a schedule into a metric-name suffix: its method name.
func kindName(text string) string {
	name, _, _ := strings.Cut(text, ",")
	return name
}

// claimNS claims chunk-1 ranges from a two-shard pool from two goroutines,
// each on its own home shard, until the pool drains; it returns the mean
// wall time per claim (the best of three pools). credit selects the batched
// credit path; otherwise the strict per-chunk path the dynamic schedule
// uses.
func claimNS(pl *amp.Platform, credit bool) float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		ws := pool.NewSharded(probeN, []int{1, 1})
		ws.SetTopology(pl.TypeDist())
		var per [nWorkers]float64
		var wg sync.WaitGroup
		for tid := 0; tid < nWorkers; tid++ {
			wg.Add(1)
			go func(home int) {
				defer wg.Done()
				var c pool.Credit
				t0 := time.Now()
				claims := 0
				for {
					claims++
					var ok bool
					if credit {
						_, _, _, ok = ws.TryStealCredit(home, 1, &c)
					} else {
						_, _, _, _, ok = ws.TryStealBatchFrom(home, 1, 1)
					}
					if !ok {
						break
					}
				}
				per[home] = float64(time.Since(t0)) / float64(claims)
			}(tid)
		}
		wg.Wait()
		ns := (per[0] + per[1]) / 2
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// pickNS times fair.Policy.Pick over the runnable-loop counts serve saw at
// its submissions (one candidate list per observation, weights cycling
// through the QoS classes) and returns the mean wall time per call.
func pickNS(counts []int, classes []fair.Class) float64 {
	if len(counts) == 0 {
		return 0
	}
	p := fair.NewWeightedRoundRobin(0)
	maxN := 0
	for _, n := range counts {
		if n > maxN {
			maxN = n
		}
	}
	all := make([]fair.Candidate, maxN)
	for i := range all {
		all[i] = fair.Candidate{ID: uint64(i), Weight: classes[i%len(classes)].Weight}
	}
	const rounds = 20
	t0 := time.Now()
	calls := 0
	for r := 0; r < rounds; r++ {
		for i, n := range counts {
			p.Pick(i%nWorkers, all[:n])
			calls++
		}
	}
	return float64(time.Since(t0)) / float64(calls)
}
