package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/amp"
	"repro/internal/arrival"
	"repro/internal/fair"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/rt"
)

// The serve path's traffic: an open loop of Poisson arrivals into one
// persistent rt.Registry. It is no workload of its own (its latency tails
// swing from run to run on a 2-CPU host by more than any bound the
// benchmark may set); every --trace 1 run makes the traced passes below,
// which report the rt Registry, fair and obs layers. The sim-sweep
// workload's multi-tenant mirror replays the same plan in virtual time.
const (
	serveRate        = 400 // Poisson arrivals per second
	serveClasses     = "gold:8,silver:4,bronze:1"
	serveSched       = "aid-static,64"
	serveFineSched   = "aid-dynamic,1,5"
	serveShort       = 20_000  // iterations of a short request
	serveLong        = 200_000 // iterations of a long request (every fifth)
	serveMaxInFlight = 256     // in-flight bound; an arrival beyond it is shed
)

// planned is one planned request: when it is due, its size and its class.
type planned struct {
	intended time.Duration // arrival time on the driver's schedule
	n        int64
	class    int
}

// request is one arrival as a pass offered it.
type request struct {
	planned
	submitAt  int64               // ns since the driver base, just before Submit
	submitted int64               // ns since the driver base, when Submit returned
	loop      *rt.Loop            // nil once collected
	iters     [nWorkers]perWorker // body iterations per worker
	hits      [nWorkers]perWorker // Monte-Carlo hits per worker
	firstBody atomic.Int64        // ns since the driver base, first body call (+1)
	lastEnd   [nWorkers]perWorker
}

// serveSetup is a ready serve path: the fleet, the traffic and the plan of
// the traced pass.
type serveSetup struct {
	classes     []fair.Class
	sched, fine rt.Schedule
	reg         *rt.Registry
	plan        []planned
}

func (s *serveSetup) close() { s.reg.Close() }

// serveWarmup is the length of the untimed open loop a set-up ends with.
const serveWarmup = 300 * time.Millisecond

func setupServe(seed uint64) (*serveSetup, error) {
	pl, err := loadPlatform()
	if err != nil {
		return nil, err
	}
	s := &serveSetup{}
	if s.classes, err = fair.ParseClasses(serveClasses); err != nil {
		return nil, err
	}
	if s.sched, err = rt.ParseSchedule(serveSched); err != nil {
		return nil, err
	}
	if s.fine, err = rt.ParseSchedule(serveFineSched); err != nil {
		return nil, err
	}
	if s.plan, err = servePlan(serveRate, serveWindow, len(s.classes), seed); err != nil {
		return nil, err
	}
	if len(s.plan) == 0 {
		return nil, fmt.Errorf("serve: no arrivals in %v at rate %d/s", serveWindow, serveRate)
	}
	if s.reg, err = newServeRegistry(pl); err != nil {
		return nil, err
	}
	warm, err := servePlan(serveRate, serveWarmup, len(s.classes), seed^0x3a3a)
	if err == nil {
		_, err = runServe(s.reg, s.sched, s.classes, warm, seed, false)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func checkServe(res *result, r *serveRun) {
	res.Attempted += int64(r.offered)
	if r.shed > 0 {
		res.fail(int64(r.shed), "serve: %d of %d requests shed at %d in flight", r.shed, r.offered, serveMaxInFlight)
	}
	if r.bad > 0 {
		res.fail(int64(r.bad), "serve: %d requests did not cover their iterations exactly once", r.bad)
	}
}

// servePlan builds the arrival schedule of one serve run: Poisson arrival
// times over the window, the QoS class by arrival index, and a 4:1 mix of
// short and long requests by arrival index. The same seed gives the same
// plan.
func servePlan(rate float64, window time.Duration, nClasses int, seed uint64) ([]planned, error) {
	p, err := arrival.NewPoisson(rate, seed)
	if err != nil {
		return nil, err
	}
	times := arrival.Times(p, 0, int64(window))
	plan := make([]planned, len(times))
	for i, t := range times {
		n := int64(serveShort)
		if i%5 == 4 {
			n = serveLong
		}
		plan[i] = planned{intended: time.Duration(t), n: n, class: i % nClasses}
	}
	return plan, nil
}

// serveRun is the outcome of one open-loop pass.
type serveRun struct {
	offered     int
	shed        int
	bad         int // coverage mismatches and errors
	latMs       []float64
	lagUs       []float64
	inflightMax int
	counts      []int // runnable loops at each submission (for the pick probe)
	// traced only
	submitUs, startDelayUs, loopRunUs, releaseUs []float64
	metrics                                      obs.Snapshot
}

// newServeRegistry builds the persistent fleet serve submits to.
func newServeRegistry(pl *amp.Platform) (*rt.Registry, error) {
	return rt.NewRegistry(rt.RegistryConfig{Platform: pl, NThreads: nWorkers, Binding: amp.BindBS,
		Profile: profEP, Policy: fair.NewWeightedRoundRobin(0), Metrics: true})
}

// runServe offers the plan's arrivals to reg on their fixed schedule and
// collects every admitted request. Between arrivals the driver retires the
// requests at the head of the in-flight queue that have completed, so only
// in-flight loops stay referenced. With traced set, each body call is
// timed to split a request's latency into layers.
func runServe(reg *rt.Registry, sched rt.Schedule, classes []fair.Class, plan []planned, seed uint64, traced bool) (*serveRun, error) {
	reqs := make([]*request, len(plan))
	for i, a := range plan {
		reqs[i] = &request{planned: a}
	}
	run := &serveRun{offered: len(reqs)}
	before := reg.MetricsSnapshot()
	base := time.Now()
	since := func() int64 { return int64(time.Since(base)) }
	var inflight []*request // admitted, not yet collected, in admission order
	collect := func(rq *request) {
		st := rq.loop.Wait()
		lat := rq.loop.Latency()
		// Latency is the submit lag plus Loop.Latency, so the driver's wake-up
		// after the barrier release stays out of it.
		latency := time.Duration(rq.submitAt) - rq.intended + lat
		var got, engine int64
		for t := range rq.iters {
			got += rq.iters[t].v
		}
		for _, it := range st.Iters {
			engine += it
		}
		if got != rq.n || engine != rq.n {
			run.bad++
			if run.bad <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: serve: request of %d iterations ran %d body iterations (engine counted %d)\n", rq.n, got, engine)
			}
		}
		run.latMs = append(run.latMs, float64(latency)/1e6)
		if traced {
			first := rq.firstBody.Load() - 1
			var last int64
			for t := range rq.lastEnd {
				last = max(last, rq.lastEnd[t].v)
			}
			run.submitUs = append(run.submitUs, float64(rq.submitted-rq.submitAt)/1e3)
			if first >= 0 {
				run.startDelayUs = append(run.startDelayUs, float64(first-rq.submitted)/1e3)
				run.loopRunUs = append(run.loopRunUs, float64(last-first)/1e3)
				run.releaseUs = append(run.releaseUs, float64(int64(lat)-(last-rq.submitted))/1e3)
			}
		}
		rq.loop = nil
	}
	for i, rq := range reqs {
		rq := rq
		for len(inflight) > 0 && isDone(inflight[0].loop) {
			collect(inflight[0])
			inflight = inflight[1:]
		}
		if d := rq.intended - time.Since(base); d > 0 {
			time.Sleep(d)
		}
		run.lagUs = append(run.lagUs, float64(time.Since(base)-rq.intended)/1e3)
		n := reg.InFlight()
		if n >= serveMaxInFlight {
			run.shed++
			continue
		}
		run.counts = append(run.counts, n+1)
		run.inflightMax = max(run.inflightMax, n+1)
		reqSeed := seed ^ uint64(i)*0x9E3779B97F4A7C15
		body := func(tid int, lo, hi int64) {
			rq.hits[tid].v += kernels.MonteCarloPiRange(lo, hi, reqSeed)
			rq.iters[tid].v += hi - lo
		}
		if traced {
			inner := body
			body = func(tid int, lo, hi int64) {
				rq.firstBody.CompareAndSwap(0, since()+1)
				inner(tid, lo, hi)
				rq.lastEnd[tid].v = since()
			}
		}
		rq.submitAt = since()
		l, err := reg.Submit(rt.LoopRequest{N: rq.n, Schedule: sched, Weight: classes[rq.class].Weight, Body: body})
		rq.submitted = since()
		if err != nil {
			return nil, fmt.Errorf("submit request %d: %w", i, err)
		}
		rq.loop = l
		inflight = append(inflight, rq)
	}
	for _, rq := range inflight {
		collect(rq)
	}
	if traced {
		run.metrics = reg.MetricsSnapshot().Delta(before)
	}
	return run, nil
}

// isDone reports whether l's barrier has released, without blocking.
func isDone(l *rt.Loop) bool {
	select {
	case <-l.Done():
		return true
	default:
		return false
	}
}

// report sets the serve per-layer metrics of a traced run: medians per
// request, except the p99s and the maximum. rt.start_delay_us runs from
// Submit's return to the first body call, rt.loop_run_us from there to the
// last body end, and rt.release_us from the last body end to the barrier
// release (Loop.Latency minus Submit-return-to-last-body-end).
func (r *serveRun) report(res *result) {
	res.set("rt.submit_us", median(r.submitUs), "us")
	res.set("rt.start_delay_us", median(r.startDelayUs), "us")
	res.set("rt.start_delay_us_p99", pct(r.startDelayUs, 99), "us")
	res.set("rt.loop_run_us", median(r.loopRunUs), "us")
	res.set("rt.release_us", median(r.releaseUs), "us")
	res.set("rt.inflight_max", float64(r.inflightMax), "count")
	res.set("bench.driver_lag_us_p99", pct(r.lagUs, 99), "us")
	m := r.metrics.Counters
	total := float64(m.BusyNs + m.SchedNs + m.IdleNs)
	if total > 0 {
		res.set("obs.sched_share_pct", 100*float64(m.SchedNs)/total, "%")
		res.set("obs.idle_share_pct", 100*float64(m.IdleNs)/total, "%")
	} else {
		res.set("obs.sched_share_pct", 0, "%")
		res.set("obs.idle_share_pct", 0, "%")
	}
}
