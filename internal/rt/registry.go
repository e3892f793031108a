package rt

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Registry is the multi-loop executor: it owns a fixed fleet of worker
// goroutines (one per modeled CPU, with the same per-worker slowdown
// emulation as Team) and admits many concurrent loop submissions. Each
// admitted loop gets its own single-use core.Scheduler — and therefore its
// own sharded iteration pool — while the fleet is shared: a configurable
// fairness policy (internal/fair) decides which runnable loop a free worker
// serves next. This is the building block for serving many users at once:
// one request's parallel loop no longer needs a private set of threads.
//
// Barrier accounting is per loop. A worker that receives ok=false from a
// loop's scheduler is retired from that loop (ok=false is terminal per
// thread, the contract every scheduler satisfies); the loop's implicit
// barrier releases — Wait returns — when all fleet workers have retired
// from it, which by the schedulers' exactly-once coverage guarantee is
// exactly when all of its iterations have executed. Other loops are
// unaffected: their workers keep running.
//
// Every loop runs over the full fleet with the registry's thread-to-core
// binding, so the scheduler-facing LoopInfo is identical to the one Team
// builds and the big/small TypeOf mapping each AID variant assumes is
// stable for the duration of the loop. One fidelity caveat is inherent to
// sharing workers: an AID sampling window measured by a worker that was
// handed to another loop in between includes foreign-chunk time, so online
// SF estimates under heavy multi-tenancy are noisier than in dedicated
// fleets (coverage and barrier correctness are unaffected).
type Registry struct {
	platform *amp.Platform
	nthreads int
	binding  amp.Binding
	profile  amp.Profile
	slowdown []float64
	types    []int // per-worker home core type (cluster index)
	typeOf   func(tid int) int
	policy   fair.Policy
	base     time.Time

	// dist caches the platform's cluster-distance matrix for the metrics
	// layer's provenance-tier bucketing (nil-safe; obs.Tier handles it).
	dist [][]int
	// metrics, when non-nil, holds the fleet-level counter cells — idle
	// time between picks lands here; per-loop counters live on each Loop.
	// Enabled by RegistryConfig.Metrics for the registry's lifetime.
	metrics *obs.Metrics

	// scratch holds each worker's private pick buffers (reused across
	// picks, so the steady-state scheduling path allocates nothing).
	scratch []pickScratch

	// gen counts admissions; workers snapshot it at pick time and re-enter
	// the policy when it changes, so a newly submitted loop is noticed even
	// by a worker in the middle of an unbounded single-loop burst. It sits
	// alone on its cache line: every worker loads it once per served chunk,
	// and letting Submit's increment share a line with the mutex word (or
	// anything else the control plane writes) would broadcast invalidations
	// into every burst loop in the fleet.
	_   [64]byte
	gen atomic.Uint64
	_   [56]byte

	mu     sync.Mutex
	cond   *sync.Cond
	run    []*Loop // admitted, incomplete loops in admission order
	nextID uint64
	closed bool
	wg     sync.WaitGroup
	// retiredAgg accumulates the metrics snapshots of completed loops
	// (guarded by mu), so MetricsSnapshot stays O(live loops), not
	// O(all loops ever served).
	retiredAgg obs.Snapshot
}

// RegistryConfig configures NewRegistry.
type RegistryConfig struct {
	// Platform provides the topology and the per-core slowdown factors;
	// defaults to Platform A.
	Platform *amp.Platform
	// NThreads is the fleet size; 0 selects the platform core count.
	NThreads int
	// Binding defaults to BS (the convention all AID variants assume).
	Binding amp.Binding
	// Profile is the instruction mix used to derive emulated slowdown
	// factors from the platform model; the zero value is a moderate mix.
	Profile amp.Profile
	// Policy is the fairness policy handing workers between runnable
	// loops; defaults to fair.NewWeightedRoundRobin(0). A policy instance
	// is stateful and must not be shared between registries.
	Policy fair.Policy
	// Metrics enables the always-on runtime counters (internal/obs): each
	// loop gets per-worker counter cells surfaced via LoopStats.Metrics,
	// and Registry.MetricsSnapshot serves the live fleet-wide view. The
	// hot path stays allocation free with metrics on (gated by
	// TestRegistryMetricsSteadyStateAllocs); the per-chunk cost is a few
	// single-writer counter bumps (BenchmarkMetricsOverhead pins it).
	Metrics bool
}

// fleetParams validates and defaults the platform/thread-count/profile
// triple shared by NewTeam and NewRegistry. NThreads 0 selects the
// platform core count; anything else must lie in [1, NumCores].
func fleetParams(pl *amp.Platform, nthreads int, prof amp.Profile) (*amp.Platform, int, error) {
	if pl == nil {
		pl = amp.PlatformA()
	}
	if nthreads < 0 || nthreads > pl.NumCores() {
		return nil, 0, fmt.Errorf("rt: thread count %d out of range [0,%d] (0 selects the platform core count)", nthreads, pl.NumCores())
	}
	if nthreads == 0 {
		nthreads = pl.NumCores()
	}
	if err := prof.Validate(); err != nil {
		return nil, 0, err
	}
	return pl, nthreads, nil
}

// fleetSlowdowns derives each worker's emulated slowdown from the platform
// speed model: the fastest core type runs unthrottled; others are throttled
// by the speed ratio.
func fleetSlowdowns(pl *amp.Platform, nthreads int, binding amp.Binding, prof amp.Profile) []float64 {
	fastest := 0.0
	speeds := make([]float64, nthreads)
	for tid := 0; tid < nthreads; tid++ {
		cpu := pl.CoreOf(tid, nthreads, binding)
		speeds[tid] = pl.Speed(cpu, prof, 1)
		if speeds[tid] > fastest {
			fastest = speeds[tid]
		}
	}
	slowdown := make([]float64, nthreads)
	for tid := range speeds {
		slowdown[tid] = fastest / speeds[tid]
	}
	return slowdown
}

// NewRegistry builds the worker fleet and starts its goroutines. The fleet
// runs until Close.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	pl, nthreads, err := fleetParams(cfg.Platform, cfg.NThreads, cfg.Profile)
	if err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		cfg.Policy = fair.NewWeightedRoundRobin(0)
	}
	r := &Registry{
		platform: pl,
		nthreads: nthreads,
		binding:  cfg.Binding,
		profile:  cfg.Profile,
		slowdown: fleetSlowdowns(pl, nthreads, cfg.Binding, cfg.Profile),
		types:    make([]int, nthreads),
		policy:   cfg.Policy,
		base:     time.Now(),
	}
	for tid := 0; tid < nthreads; tid++ {
		r.types[tid] = pl.ClusterOf(pl.CoreOf(tid, nthreads, cfg.Binding))
	}
	r.dist = pl.TypeDist()
	// One type-lookup closure for the registry's lifetime: LoopInfo wants a
	// func, and building a fresh closure per Submit is an allocation the
	// admission path does not need.
	types := r.types
	r.typeOf = func(tid int) int { return types[tid] }
	if cfg.Metrics {
		r.metrics = obs.New(nthreads, len(pl.Clusters), r.typeOf)
	}
	r.scratch = make([]pickScratch, nthreads)
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(nthreads)
	for tid := 0; tid < nthreads; tid++ {
		go r.worker(tid)
	}
	return r, nil
}

// NThreads returns the fleet size.
func (r *Registry) NThreads() int { return r.nthreads }

// Slowdown returns worker tid's emulated slowdown factor (1 = big core).
func (r *Registry) Slowdown(tid int) float64 { return r.slowdown[tid] }

// Policy returns the registry's fairness policy.
func (r *Registry) Policy() fair.Policy { return r.policy }

// InFlight returns the number of admitted loops whose barriers have not
// released yet — the service tier's saturation signal for admission
// control. It is a snapshot: by the time the caller acts, loops may have
// arrived or drained.
func (r *Registry) InFlight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.run)
}

// now returns monotonic nanoseconds since fleet creation (the timestamp
// source fed to the schedulers' sampling machinery).
func (r *Registry) now() int64 { return int64(time.Since(r.base)) }

// loopInfo builds the scheduler-facing description of a loop on this fleet.
// The platform's cluster-distance matrix rides along so sharded pools steal
// from the topologically nearest victim.
func (r *Registry) loopInfo(n int64) core.LoopInfo {
	return core.LoopInfo{
		NI:       n,
		NThreads: r.nthreads,
		NumTypes: len(r.platform.Clusters),
		TypeOf:   r.typeOf,
		TypeDist: r.platform.TypeDist(),
	}
}

// LoopRequest describes one loop submission.
type LoopRequest struct {
	// Name identifies the loop in reports and run records; "" selects
	// "loop-<id>".
	Name string
	// N is the trip count.
	N int64
	// Schedule selects the scheduling method (the zero value is the plain
	// static schedule).
	Schedule Schedule
	// Weight is the loop's relative fairness share; 0 selects 1.
	Weight int
	// Body executes iterations [lo, hi) on fleet worker tid.
	Body func(tid int, lo, hi int64)
	// Capture records the loop's real execution: every chunk grant, from
	// which the wall-clock per-worker timeline is derived, and the
	// scheduler's phase transitions.
	// Workers append to private per-worker tapes (the lock-free hot path
	// stays lock free) which are merged when the loop's barrier releases;
	// the result lands in LoopStats.Trace/Events/Phases and feeds
	// Registry.BuildRecord.
	Capture bool
	// CaptureCompact, with Capture, merges adjacent contiguous grants to
	// the same worker at tape-merge time (trace.CompactEvents) — the
	// always-on sampling recorder's first reduction. Totals (iterations,
	// pool accesses, execution time) are preserved; only grant granularity
	// is coarsened.
	CaptureCompact bool
	// CaptureMaxEvents, with Capture, bounds the loop's merged event
	// stream: when the (possibly compacted) stream exceeds it, the first
	// CaptureHead events and the last CaptureMaxEvents-CaptureHead events
	// are retained and the middle is dropped (trace.TrimToBudget). 0 means
	// unbounded. The budget is applied after compaction, so it bounds what
	// a record actually stores.
	CaptureMaxEvents int
	// CaptureHead is the head-retention share of CaptureMaxEvents; 0
	// selects half the budget.
	CaptureHead int
}

// Loop is the handle of one admitted submission. Wait (or Done) observes
// the loop's own barrier: it releases when this loop's iterations are done,
// independent of the rest of the fleet's work.
type Loop struct {
	id       uint64
	name     string
	weight   int
	n        int64
	schedule Schedule
	sched    core.Scheduler
	body     func(tid int, lo, hi int64)

	// cells is worker-indexed: cell tid is written only by worker tid and
	// published to the waiter by close(done), which happens-after every
	// worker's retirement (each retirement passes through the registry
	// lock). One padded cell per worker replaces the old parallel
	// iters/accesses/finishNs slices, whose 8-byte slots shared cache
	// lines across workers — every chunk's counter bump invalidated the
	// line of up to seven neighbours.
	cells    []workerCell
	retired  []bool // guarded by Registry.mu
	nretired int    // guarded by Registry.mu

	// sfView caches the scheduler's zero-copy live-SF interface (nil when
	// unsupported), so the per-pick candidate build is a plain call, not a
	// type assertion plus a defensive copy.
	sfView core.SFLiveViewer

	// metrics is non-nil when the registry runs with counters enabled: the
	// loop's per-worker cells (internal/obs), written on the hot path by
	// single-writer bumps and merged into LoopStats.Metrics at barrier
	// release.
	metrics *obs.Metrics

	// capture is non-nil when the loop records its execution: slot tid is
	// a private tape appended only by worker tid (published like cells).
	capture []paddedTape
	startNs int64
	// captureCompact/captureMax/captureHead are the sampled-capture
	// reductions applied when the tapes merge (see LoopRequest).
	captureCompact bool
	captureMax     int
	captureHead    int

	submitted time.Time
	latency   time.Duration
	stats     LoopStats
	done      chan struct{}
}

// workerCell is one worker's private counters for one loop: iterations
// executed, pool accesses charged, and (under capture) the worker's
// retirement time on the fleet clock. Padded to exactly one cache line so
// neighbouring workers' per-chunk updates never contend; the size is pinned
// by a layout test.
type workerCell struct {
	iters    int64
	accesses int64
	finishNs int64
	_        [40]byte
}

// ID returns the loop's admission-ordered identifier.
func (l *Loop) ID() uint64 { return l.id }

// Weight returns the loop's fairness weight.
func (l *Loop) Weight() int { return l.weight }

// Done returns a channel closed when the loop's barrier releases.
func (l *Loop) Done() <-chan struct{} { return l.done }

// Wait blocks until the loop's barrier releases and returns the loop's
// execution statistics.
func (l *Loop) Wait() LoopStats {
	<-l.done
	return l.stats
}

// Latency returns the submission-to-barrier-release duration. It is only
// meaningful once the loop is done.
func (l *Loop) Latency() time.Duration { return l.latency }

// LiveSF returns the loop's current per-core-type speedup-factor estimate,
// or nil while its scheduler has not published one (or never will — the
// conventional schedules estimate nothing). Safe to call from any
// goroutine at any time: the schedulers publish their tables through
// atomics, so this is the mid-run view the fairness policy steers by, not
// a retirement-only statistic.
// The returned slice is the scheduler's published table — read-only; do
// not mutate it.
func (l *Loop) LiveSF() []float64 {
	if l.sfView != nil {
		return l.sfView.SFLiveView()
	}
	if est, ok := l.sched.(core.SFEstimator); ok {
		if sf, ready := est.SFEstimate(); ready {
			return sf
		}
	}
	return nil
}

// Submit admits a loop for execution on the fleet and returns immediately;
// the loop starts as soon as the policy hands workers to it. It fails if
// the registry is closed or the request is invalid.
func (r *Registry) Submit(req LoopRequest) (*Loop, error) {
	if req.N < 0 {
		return nil, fmt.Errorf("rt: negative trip count %d", req.N)
	}
	if req.Body == nil {
		return nil, fmt.Errorf("rt: nil loop body")
	}
	if req.Weight < 0 {
		return nil, fmt.Errorf("rt: negative loop weight %d", req.Weight)
	}
	if req.Weight == 0 {
		req.Weight = 1
	}
	sched, err := req.Schedule.Factory()(r.loopInfo(req.N))
	if err != nil {
		return nil, err
	}
	l := &Loop{
		name:      req.Name,
		weight:    req.Weight,
		n:         req.N,
		schedule:  req.Schedule,
		sched:     sched,
		body:      req.Body,
		cells:     make([]workerCell, r.nthreads),
		retired:   make([]bool, r.nthreads),
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if v, ok := sched.(core.SFLiveViewer); ok {
		l.sfView = v
	}
	if r.metrics != nil {
		l.metrics = obs.New(r.nthreads, len(r.platform.Clusters), r.typeOf)
		l.startNs = r.now()
	}
	if req.CaptureMaxEvents < 0 {
		return nil, fmt.Errorf("rt: negative capture event budget %d", req.CaptureMaxEvents)
	}
	if req.Capture {
		l.capture = make([]paddedTape, r.nthreads)
		l.startNs = r.now()
		l.captureCompact = req.CaptureCompact
		l.captureMax = req.CaptureMaxEvents
		l.captureHead = req.CaptureHead
		if l.captureMax > 0 && l.captureHead <= 0 {
			l.captureHead = l.captureMax / 2
		}
		// Pre-size the tapes from the schedule's chunk geometry so the
		// capturing hot path appends into reserved space instead of
		// growing its buffers mid-run.
		est := tapeEstimate(req.N, req.Schedule.Chunk, r.nthreads)
		for tid := range l.capture {
			l.capture[tid].Reserve(est)
		}
		if po, ok := sched.(core.PhaseObservable); ok {
			// The observer runs on the transition-owning worker and appends
			// to that worker's private tape, so the capture path inherits
			// the schedulers' lock freedom.
			po.SetPhaseObserver(func(ev core.PhaseEvent) {
				tp := &l.capture[ev.Tid].WorkerTape
				tp.Phases = append(tp.Phases, trace.PhaseEvent{TimeNs: ev.TimeNs,
					Tid: ev.Tid, Epoch: ev.Epoch, Kind: ev.Kind, SF: ev.SF})
			})
		}
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("rt: registry is closed")
	}
	l.id = r.nextID
	r.nextID++
	if l.name == "" {
		l.name = fmt.Sprintf("loop-%d", l.id)
	}
	r.run = append(r.run, l)
	r.gen.Add(1)
	r.cond.Broadcast()
	r.mu.Unlock()
	return l, nil
}

// BuildRecord assembles a serializable run record from completed captured
// loops — the real-engine analog of the simulator's native recording. All
// loops must have been submitted to this registry with Capture set and have
// released their barriers. Events are merged into global time order (per-
// worker capture order breaks timestamp ties) and each event's abstract
// work units are derived from its measured wall time and the platform speed
// model, so internal/replay can re-execute and what-if the run in virtual
// time.
func (r *Registry) BuildRecord(loops ...*Loop) (*trace.Record, error) {
	if len(loops) == 0 {
		return nil, fmt.Errorf("rt: no loops to record")
	}
	rec := trace.NewRecorder()
	// The modeled per-worker speed converts measured wall time to work
	// units. Cluster occupancy is the full fleet, matching the simulator's
	// single-loop model where every worker is resident.
	occupancy := make([]int, len(r.platform.Clusters))
	for tid := 0; tid < r.nthreads; tid++ {
		occupancy[r.types[tid]]++
	}
	speed := make([]float64, r.nthreads)
	for tid := 0; tid < r.nthreads; tid++ {
		cpu := r.platform.CoreOf(tid, r.nthreads, r.binding)
		speed[tid] = r.platform.Speed(cpu, r.profile, occupancy[r.types[tid]])
	}
	startNs := int64(-1)
	var endNs int64
	for _, l := range loops {
		select {
		case <-l.done:
		default:
			return nil, fmt.Errorf("rt: loop %q has not released its barrier", l.name)
		}
		if l.capture == nil {
			return nil, fmt.Errorf("rt: loop %q was not submitted with Capture", l.name)
		}
		if startNs == -1 || l.startNs < startNs {
			startNs = l.startNs
		}
		if l.stats.EndNs > endNs {
			endNs = l.stats.EndNs
		}
	}
	policy := ""
	if len(loops) > 1 {
		policy = r.policy.Name()
	}
	if err := rec.BeginRun(trace.RunMeta{
		Engine:   "rt",
		Platform: trace.PlatformRecordOf(r.platform),
		NThreads: r.nthreads,
		Binding:  r.binding.String(),
		Policy:   policy,
		StartNs:  startNs,
	}); err != nil {
		return nil, err
	}
	var nev, nph int
	for _, l := range loops {
		nev += len(l.stats.Events)
		nph += len(l.stats.Phases)
	}
	evs := make([]trace.ChunkEvent, 0, nev)
	phs := make([]trace.PhaseEvent, 0, nph)
	for _, l := range loops {
		idx := rec.AddLoop(trace.LoopRecord{
			Name:      l.name,
			NI:        l.n,
			Weight:    l.weight,
			Scheduler: l.sched.Name(),
			Schedule:  l.schedule.Canonical(),
			Profile:   r.profile,
		})
		for _, ev := range l.stats.Events {
			ev.Loop = idx
			if !ev.Retire {
				ev.Cost = float64(ev.ExecNs) * speed[ev.Tid]
			}
			evs = append(evs, ev)
		}
		for _, p := range l.stats.Phases {
			p.Loop = idx
			phs = append(phs, p)
		}
	}
	sortEvents(evs)
	rec.ReserveChunks(len(evs))
	for _, ev := range evs {
		rec.Chunk(ev)
	}
	// Per-loop phase streams are already sorted; interleave them
	// chronologically across loops (stable, to preserve each stream).
	sort.Stable(phaseEventOrder(phs))
	for _, p := range phs {
		rec.Phase(p)
	}
	// Final estimates go last: Phase() auto-derives mid-run SF samples, and
	// the serialized trajectory must stay chronological.
	for idx, l := range loops {
		if l.stats.SFEstimate != nil {
			rec.SFSample(trace.SFSample{TimeNs: l.stats.EndNs, Loop: idx,
				SF: append([]float64(nil), l.stats.SFEstimate...)})
		}
	}
	rec.EndRun(endNs - startNs)
	return rec.Record(), nil
}

// Close stops accepting submissions, lets the already-admitted loops drain,
// and joins the worker fleet. It blocks until every worker has exited and
// is safe to call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// paddedTape is one worker's private capture buffer; the pad keeps
// neighbouring workers' tape headers off each other's cache lines.
type paddedTape struct {
	trace.WorkerTape
	_ [64]byte
}

// tapeEstimate guesses how many chunk grants one worker will capture for a
// loop of n iterations under the given chunk size (0 = schedule default,
// treated as 1, the paper's fine-grained default). The guess is clamped to
// [8, 1<<14] — an estimate only: workloads that blow past it just pay the
// append growth the reservation usually avoids, and the cap keeps a huge
// coarse loop from reserving megabytes per worker up front.
func tapeEstimate(n, chunk int64, nthreads int) int {
	if chunk <= 0 {
		chunk = 1
	}
	per := n/(chunk*int64(nthreads)) + 4
	if per < 8 {
		per = 8
	}
	if per > 1<<14 {
		per = 1 << 14
	}
	return int(per)
}

// pickScratch is one worker's private, reusable pick buffers. The slices
// grow to the fleet's high-water tenant count and stay there, so the
// steady-state pick path performs no allocations; the pad keeps
// neighbouring workers' slice headers off each other's cache lines (the
// size is pinned by a layout test).
type pickScratch struct {
	cands []fair.Candidate
	loops []*Loop
	_     [16]byte
}

// worker is one fleet goroutine: pick a loop under the fairness policy,
// serve it for the granted burst of scheduler calls, repeat. The chunk
// execution path is the same lock-free hot path as Team's — the control
// plane (pick/retire) takes the registry lock only between bursts, and
// capture (when a loop requests it) appends to the worker's private tape.
func (r *Registry) worker(tid int) {
	defer r.wg.Done()
	f := r.slowdown[tid]
	myType := r.types[tid]
	// fleet is this worker's registry-lifetime counter cell (idle time spent
	// between loops lands here, not on any tenant); per-loop counters go to
	// mc below. Both are nil when the registry runs without metrics, and the
	// bump sites cost a single predictable branch each.
	var fleet *obs.Cell
	if r.metrics != nil {
		fleet = r.metrics.Cell(tid)
	}
	// wseq totally orders this worker's captured events across loops; the
	// wall clock alone cannot (two grants can land in the same nanosecond
	// tick on coarse timers), and replay needs the per-worker grant order.
	var wseq int64
	for {
		var pickStart int64
		if fleet != nil {
			pickStart = r.now()
		}
		l, burst, gen := r.pick(tid)
		if fleet != nil {
			fleet.Idle(r.now() - pickStart)
		}
		if l == nil {
			return
		}
		cell := &l.cells[tid]
		// mb accumulates this burst's counter deltas in plain locals and is
		// applied to the loop's cell every flushEvery chunks and at every
		// burst exit — the batching that keeps the metrics path inside the
		// overhead budget (see obs.Batch).
		var mc *obs.Cell
		var mb obs.Batch
		if l.metrics != nil {
			mc = l.metrics.Cell(tid)
		}
		const flushEvery = 32
		for served := 0; served < burst; served++ {
			if r.gen.Load() != gen {
				break // a new loop arrived: give the policy a say
			}
			nowNs := r.now()
			asg, ok := l.sched.Next(tid, nowNs)
			cell.accesses += int64(asg.PoolAccesses)
			if !ok {
				if l.capture != nil || mc != nil {
					schedEnd := r.now()
					cell.finishNs = schedEnd
					if mc != nil {
						mb.SchedNs += schedEnd - nowNs
						mb.CreditClaimed += asg.CreditClaimed
						mb.CreditReturned += asg.CreditReturned
						mc.Apply(&mb)
					}
					if l.capture != nil {
						tp := &l.capture[tid].WorkerTape
						tp.Events = append(tp.Events, trace.ChunkEvent{Seq: wseq, TimeNs: nowNs,
							Tid: tid, Shard: r.types[tid], Origin: asg.Origin,
							SchedNs: schedEnd - nowNs, PoolAccesses: asg.PoolAccesses,
							Timestamps: asg.Timestamps, Retire: true})
						wseq++
					}
				}
				r.retire(l, tid)
				break
			}
			cell.iters += asg.N()
			if mc != nil {
				mb.Grant(asg.N(), obs.Tier(r.dist, myType, asg.Origin))
				mb.CreditClaimed += asg.CreditClaimed
				mb.CreditReturned += asg.CreditReturned
			}
			if l.capture == nil {
				start := time.Now()
				if mc != nil {
					// The scheduling window ends where the body clock starts;
					// deriving it from `start` keeps the metrics path at the
					// same three clock reads per chunk as the bare path.
					mb.SchedNs += int64(start.Sub(r.base)) - nowNs
				}
				l.body(tid, asg.Lo, asg.Hi)
				d := int64(time.Since(start))
				throttle(d, f)
				if mc != nil {
					mb.BusyNs += throttledNs(d, f)
					if mb.Chunks >= flushEvery {
						mc.Apply(&mb)
					}
				}
				continue
			}
			schedEnd := r.now()
			start := time.Now()
			l.body(tid, asg.Lo, asg.Hi)
			throttle(int64(time.Since(start)), f)
			end := r.now()
			if mc != nil {
				mb.SchedNs += schedEnd - nowNs
				mb.BusyNs += end - schedEnd
				if mb.Chunks >= flushEvery {
					mc.Apply(&mb)
				}
			}
			tp := &l.capture[tid].WorkerTape
			tp.Events = append(tp.Events, trace.ChunkEvent{Seq: wseq, TimeNs: nowNs,
				Tid: tid, Lo: asg.Lo, Hi: asg.Hi, Shard: r.types[tid], Origin: asg.Origin,
				SchedNs: schedEnd - nowNs, ExecNs: end - schedEnd,
				PoolAccesses: asg.PoolAccesses, Timestamps: asg.Timestamps})
			wseq++
		}
		if mc != nil {
			// Burst exit without retirement (generation change): publish what
			// the batch still holds before the next pick can land elsewhere.
			mc.Apply(&mb)
		}
	}
}

// throttledNs is the wall-clock occupancy of a body that measured execNs of
// its own time and was then throttled by slowdown factor f (throttle
// busy-waits roughly execNs*(f-1) more, so the worker occupied ~execNs*f).
func throttledNs(execNs int64, f float64) int64 {
	if f > 1 {
		return int64(float64(execNs) * f)
	}
	return execNs
}

// pick blocks until some admitted loop still wants scheduler calls from
// worker tid, returning it with the policy's burst and the admission
// generation, or returns nil after Close once nothing is left for this
// worker. A lone runnable loop is granted an effectively unbounded burst —
// the generation check in the worker loop restores fairness the moment a
// second loop arrives — so single-tenant execution pays one pick per loop,
// not one per chunk.
func (r *Registry) pick(tid int) (*Loop, int, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sc := &r.scratch[tid]
	for {
		cands, loops := sc.cands[:0], sc.loops[:0]
		for _, l := range r.run {
			if !l.retired[tid] {
				cands = append(cands, fair.Candidate{ID: l.id, Weight: l.weight,
					CoreType: r.types[tid], SF: l.LiveSF()})
				loops = append(loops, l)
			}
		}
		sc.cands, sc.loops = cands, loops
		gen := r.gen.Load()
		if len(cands) == 1 {
			// The policy is bypassed, not left behind: stateful policies
			// see the grant through the Observe hook, so their cursors are
			// current when a second tenant arrives.
			if ob, ok := r.policy.(fair.Observer); ok {
				ob.Observe(tid, cands[0])
			}
			return loops[0], 1 << 30, gen
		}
		if len(cands) > 0 {
			idx, burst := r.policy.Pick(tid, cands)
			if idx < 0 || idx >= len(cands) {
				idx = 0 // a broken policy must not crash the fleet
			}
			if burst < 1 {
				burst = 1
			}
			return loops[idx], burst, gen
		}
		if r.closed {
			return nil, 0, 0
		}
		// Idle: drop stale loop references (the truncated slices' backing
		// arrays still hold them) before sleeping, so a long-lived fleet
		// does not pin retired loops and their capture tapes in memory.
		full := sc.loops[:cap(sc.loops)]
		for i := range full {
			full[i] = nil
		}
		fullc := sc.cands[:cap(sc.cands)]
		for i := range fullc {
			fullc[i] = fair.Candidate{}
		}
		r.cond.Wait()
	}
}

// retire records that worker tid has no more work in loop l. The last
// retirement releases the loop's barrier: the loop leaves the runnable
// list, its stats are published, and Done/Wait unblock.
func (r *Registry) retire(l *Loop, tid int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l.retired[tid] {
		return
	}
	l.retired[tid] = true
	l.nretired++
	if l.nretired < r.nthreads {
		return
	}
	// Swap-remove: the runnable list is consulted on every pick under this
	// lock, and fairness policies order by loop ID, not slice position, so
	// shifting the whole tail on each retirement buys nothing.
	for i, cand := range r.run {
		if cand == l {
			last := len(r.run) - 1
			r.run[i] = r.run[last]
			r.run[last] = nil
			r.run = r.run[:last]
			break
		}
	}
	if rt, ok := r.policy.(fair.Retirer); ok {
		rt.Retire(l.id) // drop cursors referencing the finished loop
	}
	l.latency = time.Since(l.submitted)
	l.stats = LoopStats{
		Iters:         make([]int64, len(l.cells)),
		SchedulerName: l.sched.Name(),
	}
	for tid := range l.cells {
		l.stats.Iters[tid] = l.cells[tid].iters
		l.stats.PoolAccesses += l.cells[tid].accesses
	}
	if est, ok := l.sched.(core.SFEstimator); ok {
		if sf, ready := est.SFEstimate(); ready {
			l.stats.SFEstimate = sf
		}
	}
	if l.metrics != nil {
		l.finishMetrics(r)
	}
	if l.capture != nil {
		l.mergeCapture(r.nthreads)
	}
	close(l.done)
}

// finishMetrics folds the loop's counter cells into its published stats at
// barrier release (under the registry lock, after every worker's retirement
// — the quiescent-merge window of obs's counter invariants). Each worker's
// barrier wait is charged as idle time against its cell, the pool's
// reweight count is read once from the scheduler, and the snapshot is both
// attached to LoopStats and accumulated into the registry's completed-loop
// aggregate for MetricsSnapshot.
func (l *Loop) finishMetrics(r *Registry) {
	var maxFinish int64
	for tid := range l.cells {
		if fn := l.cells[tid].finishNs; fn > maxFinish {
			maxFinish = fn
		}
	}
	for tid := range l.cells {
		if gap := maxFinish - l.cells[tid].finishNs; gap > 0 {
			l.metrics.Cell(tid).Idle(gap)
		}
	}
	if rc, ok := l.sched.(core.ReweightCounter); ok {
		l.metrics.Cell(0).SetReweights(rc.PoolReweights())
	}
	snap := l.metrics.Snapshot()
	l.stats.Metrics = &snap
	// Start/end on the fleet clock; mergeCapture overwrites with the same
	// values when the loop was also captured.
	l.stats.StartNs = l.startNs
	l.stats.EndNs = maxFinish
	r.retiredAgg = r.retiredAgg.Add(snap)
}

// MetricsSnapshot returns the live fleet-wide counter view: everything the
// completed loops retired plus a scrape of the in-flight loops' cells and
// the fleet's own idle cells. It returns the zero Snapshot when the
// registry was built without Metrics. Cold path: safe to call from a
// scrape handler at any rate that tolerates taking the registry lock.
func (r *Registry) MetricsSnapshot() obs.Snapshot {
	if r.metrics == nil {
		return obs.Snapshot{}
	}
	r.mu.Lock()
	agg := r.retiredAgg
	live := make([]*obs.Metrics, 0, len(r.run))
	for _, l := range r.run {
		if l.metrics != nil {
			live = append(live, l.metrics)
		}
	}
	r.mu.Unlock()
	for _, m := range live {
		agg = agg.Add(m.Snapshot())
	}
	return agg.Add(r.metrics.Snapshot())
}

// MetricsEnabled reports whether the registry was built with Metrics.
func (r *Registry) MetricsEnabled() bool { return r.metrics != nil }

// mergeCapture folds the per-worker tapes into the loop's stats once the
// barrier has released (runs under the registry lock, after every worker's
// retirement published its tape). The timeline is derived from the full
// merged event stream with the loop viewed as one fork/join barrier from
// submission to the last retirement, the view BuildRecord's record of this
// loop alone gets from Record.Trace.
func (l *Loop) mergeCapture(nthreads int) {
	var maxFinish int64
	var nev, nph int
	for tid := 0; tid < nthreads; tid++ {
		if f := l.cells[tid].finishNs; f > maxFinish {
			maxFinish = f
		}
		nev += len(l.capture[tid].Events)
		nph += len(l.capture[tid].Phases)
	}
	evs := make([]trace.ChunkEvent, 0, nev)
	phs := make([]trace.PhaseEvent, 0, nph)
	for tid := 0; tid < nthreads; tid++ {
		tp := &l.capture[tid].WorkerTape
		evs = append(evs, tp.Events...)
		phs = append(phs, tp.Phases...)
	}
	// Seq keeps the per-worker capture sequence (NOT reassigned here): it
	// is the tie-break token BuildRecord needs when merging several loops'
	// events whose wall-clock stamps collide; the Recorder assigns the
	// global sequence when a record is built.
	sortEvents(evs)
	// The timeline keeps full coverage: it is derived before the
	// sampled-capture reductions.
	l.stats.Trace = trace.FromEvents(nthreads, evs, l.startNs, maxFinish, true)
	// The sampled-capture reductions run here, after the merge sort and
	// before publication: compaction needs the engines' event order, and
	// the budget must bound what the loop's stats (and any record built
	// from them) actually retain.
	if l.captureCompact {
		evs = trace.CompactEvents(evs)
	}
	evs = trace.TrimToBudget(evs, l.captureMax, l.captureHead)
	sort.Sort(phaseEventOrder(phs))
	l.stats.StartNs = l.startNs
	l.stats.EndNs = maxFinish
	l.stats.Events = evs
	l.stats.Phases = phs
}

// chunkEventOrder orders captured events chronologically; timestamp ties
// break by thread, then by the per-worker capture sequence (the ground
// truth for one worker's grant order, which replay depends on). A named
// sort.Interface instead of sort.Slice closures: the merge paths run per
// barrier release, and the closure variants allocate on every call.
type chunkEventOrder []trace.ChunkEvent

func (e chunkEventOrder) Len() int      { return len(e) }
func (e chunkEventOrder) Swap(i, j int) { e[i], e[j] = e[j], e[i] }
func (e chunkEventOrder) Less(i, j int) bool {
	if e[i].TimeNs != e[j].TimeNs {
		return e[i].TimeNs < e[j].TimeNs
	}
	if e[i].Tid != e[j].Tid {
		return e[i].Tid < e[j].Tid
	}
	return e[i].Seq < e[j].Seq
}

// phaseEventOrder orders phase transitions chronologically, thread as the
// tie-break (per-loop streams are already internally ordered, so stable
// merges across loops preserve each stream).
type phaseEventOrder []trace.PhaseEvent

func (e phaseEventOrder) Len() int      { return len(e) }
func (e phaseEventOrder) Swap(i, j int) { e[i], e[j] = e[j], e[i] }
func (e phaseEventOrder) Less(i, j int) bool {
	if e[i].TimeNs != e[j].TimeNs {
		return e[i].TimeNs < e[j].TimeNs
	}
	return e[i].Tid < e[j].Tid
}

// sortEvents orders captured events by chunkEventOrder.
func sortEvents(evs []trace.ChunkEvent) { sort.Sort(chunkEventOrder(evs)) }
