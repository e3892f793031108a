package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/obs"
	"repro/internal/trace"
)

// RunLoops simulates the concurrent execution of several parallel loops on
// one worker fleet in virtual time — the discrete-event model of the
// multi-loop registry (internal/rt). Each loop is admitted at its
// LoopSpec.Arrive stamp (clamped up to startNs; the zero value admits at
// start, the closed-loop case), so an open-loop arrival stream maps
// directly onto specs. Each loop gets its own scheduler instance (and so
// its own sharded iteration pool) and its own barrier, while the fleet's
// workers are handed between runnable loops by the fairness policy (nil
// selects weighted round-robin). A worker with no runnable loop idles
// forward to the next arrival, and — mirroring the registry's admission
// generation — an arrival mid-burst sends the worker back to the policy,
// so a newly admitted loop is noticed immediately. Because the same
// fair.Policy implementations drive both engines, fairness behaviour
// sanity-checked here deterministically carries over to the real-goroutine
// executor.
//
// The fleet is persistent, matching the registry: no per-loop fork/join
// cost is charged, worker clocks start at startNs, and a loop's End is the
// time its last worker retired from it (observed the drained pool). The
// i-th result corresponds to specs[i]. Migrations and tracing are not
// supported under multi-loop execution; configuring either is an error.
func RunLoops(cfg Config, specs []LoopSpec, policy fair.Policy, startNs int64) ([]LoopResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: no loops to run")
	}
	if len(cfg.Migrations) > 0 {
		return nil, fmt.Errorf("sim: migrations are not supported under multi-loop execution")
	}
	if cfg.Trace != nil {
		return nil, fmt.Errorf("sim: tracing is not supported under multi-loop execution")
	}
	if policy == nil {
		policy = fair.NewWeightedRoundRobin(0)
	}
	return simulate(cfg, specs, policy, startNs)
}

// simLoop is one loop's state in the event loop.
type simLoop struct {
	spec  LoopSpec
	sched core.Scheduler
	met   *obs.Metrics // nil unless Config.Metrics
	res   LoopResult
	// Per worker: chunk execution speed and the end of the worker's
	// previous chunk (for the locality penalty).
	speed    []float64
	lastHi   []int64
	nretired int // workers that have retired from the loop
	// liveSF is the most recently published SF table (nil until the
	// scheduler's estimate stabilizes). It is fed to the fairness policy on
	// every pick — the mid-run view, not a retirement-only statistic.
	liveSF []float64
	// engaged[t] counts the workers currently scheduling this loop from
	// core type t (engagedTotal across all types) — the population of the
	// loop's pool lines, which is what a pool access on it contends with. A
	// parked worker (idle-forwarding to a future arrival) and workers busy
	// on OTHER loops touch none of its lines and are not counted.
	engaged      []int
	engagedTotal int
}

// simWorker is one worker's state in the event loop: its virtual clock, the
// CPU it runs on and that CPU's cluster, the loop it currently serves (-1
// for none), the burst left in the policy's grant and the arrived-loop
// count the grant was made under (the virtual analog of the registry's
// admission generation), which loops have retired it, and how many have
// not yet. A worker is live while pending > 0.
type simWorker struct {
	clock        int64
	cpu, typ     int
	cur          int
	burst        int
	grantArrived int
	retired      []bool // indexed by loop
	pending      int
}

// done is the clock of a worker that has retired from every loop: later
// than any event, so the earliest-clock pick reaches it last.
const done = math.MaxInt64

// engine is the state of one simulated run.
type engine struct {
	cfg    Config
	policy fair.Policy // nil in fork mode
	forkNs int64       // fork half of the fork/join cost; 0 unless fork mode
	loops  []simLoop
	ws     []simWorker
	// arrive holds the loops' admission times, contiguous for the
	// per-event arrival scan.
	arrive []int64
	// activeInCluster is the fleet's occupancy of each cluster. It is the
	// whole fleet for every loop: the workers are shared, so each loop's
	// chunks contend with all resident threads of the cluster, whichever
	// loop they happen to be serving.
	activeInCluster []int
	migs            []Migration // pending, consumed in order per worker
	cands           []fair.Candidate
}

// simulate is the engine's one event loop. Workers interleave
// earliest-clock-first; each scheduler invocation is charged the platform's
// pool-access, contention, timestamp and locality costs, and each chunk runs
// at the worker's speed for the loop's profile.
//
// With a non-nil policy it runs RunLoops' persistent fleet: clocks start at
// startNs, loops are admitted at their Arrive stamps, and workers are handed
// between runnable loops by policy picks. A nil policy selects fork mode,
// RunLoop's single forked loop: specs holds one loop, every worker is
// engaged on it at fork with an unbounded burst (it never re-enters a
// policy or scans arrivals), clocks start after the fork half of
// ForkJoinNs, and the barrier adds the join half. Only fork mode emits the
// fork/join trace intervals, barrier-idle metrics and energy.
func simulate(cfg Config, specs []LoopSpec, policy fair.Policy, startNs int64) ([]LoopResult, error) {
	fork := policy == nil
	pl := cfg.Platform
	nt := cfg.NThreads
	nl := len(specs)
	e := &engine{cfg: cfg, policy: policy, loops: make([]simLoop, nl), ws: make([]simWorker, nt),
		arrive: make([]int64, nl), activeInCluster: make([]int, len(pl.Clusters)),
		migs: append([]Migration(nil), cfg.Migrations...)}
	loops, ws := e.loops, e.ws
	if fork {
		e.forkNs = int64(pl.Overhead.ForkJoinNs / 2)
	}
	for tid := range ws {
		w := &ws[tid]
		w.cpu = pl.CoreOf(tid, nt, cfg.Binding)
		w.typ = pl.ClusterOf(w.cpu)
		w.clock = startNs + e.forkNs
		w.cur = -1
		w.retired = make([]bool, nl)
		w.pending = nl
		e.activeInCluster[w.typ]++
	}
	if cfg.Recorder != nil {
		if err := beginRecording(cfg, policy, startNs); err != nil {
			return nil, err
		}
	}

	for li, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		s, err := cfg.buildScheduler(spec.Name, loopInfo(cfg, spec.NI))
		if err != nil {
			return nil, fmt.Errorf("sim: building scheduler for loop %q: %w", spec.Name, err)
		}
		li, l := li, &loops[li]
		*l = simLoop{spec: spec, sched: s, speed: make([]float64, nt), lastHi: make([]int64, nt),
			engaged: make([]int, len(pl.Clusters))}
		if cfg.Recorder != nil {
			addLoopRecord(cfg.Recorder, spec, s) // record index li
		}
		if po, isPO := s.(core.PhaseObservable); isPO {
			// The scheduler's one observer slot feeds both the recorder's
			// decision capture and the live SF: each SF publication is fed
			// to the policy and appended to the loop's SFTrajectory.
			rec := cfg.Recorder
			po.SetPhaseObserver(func(ev core.PhaseEvent) {
				if rec != nil {
					rec.Phase(trace.PhaseEvent{TimeNs: ev.TimeNs, Tid: ev.Tid, Loop: li,
						Epoch: ev.Epoch, Kind: ev.Kind, SF: ev.SF})
				}
				if ev.SF != nil {
					l.liveSF = ev.SF
					l.res.SFTrajectory = append(l.res.SFTrajectory, SFPoint{TimeNs: ev.TimeNs, SF: ev.SF})
				}
			})
		}
		if cfg.Metrics {
			// Counter cells are keyed by each worker's home cluster at start
			// (a later migration moves the worker, not its occupancy bucket
			// — the registry's binding-derived home types).
			l.met = obs.New(nt, len(pl.Clusters), func(tid int) int { return ws[tid].typ })
		}
		e.refreshSpeed(l)
		for tid := range l.lastHi {
			l.lastHi[tid] = -1
		}
		e.arrive[li] = max(spec.Arrive, startNs)
		l.res = LoopResult{
			Start:         e.arrive[li],
			Iters:         make([]int64, nt),
			Finish:        make([]int64, nt),
			SchedulerName: s.Name(),
		}
		if est, isEst := s.(core.SFEstimator); isEst {
			// Offline-SF variants publish at construction with no event;
			// the table is live from the moment the loop exists.
			if sf, ready := est.SFEstimate(); ready {
				l.liveSF = sf
				l.res.SFTrajectory = append(l.res.SFTrajectory, SFPoint{TimeNs: e.arrive[li], SF: sf})
			}
		}
	}
	if fork {
		// Fork: every worker joins the loop's pool lines after the fork
		// half of the fork/join cost (booked at the barrier).
		for tid := range ws {
			e.setCur(tid, 0)
			if cfg.Trace != nil {
				cfg.Trace.Add(tid, startNs, ws[tid].clock, trace.Sched)
			}
		}
	}

	ov := pl.Overhead
	dist := pl.TypeDist()
	for {
		// Earliest-clock-first; ties resolve to the lowest thread ID,
		// keeping the simulation deterministic.
		tid := 0
		for i := 1; i < nt; i++ {
			if ws[i].clock < ws[tid].clock {
				tid = i
			}
		}
		w := &ws[tid]
		now := w.clock
		if now == done {
			break // every worker has retired from every loop
		}
		// Deliver any due migration for this worker before it re-enters the
		// runtime (the "signal observed at next runtime call" semantics).
		for i := 0; i < len(e.migs); i++ {
			mg := e.migs[i]
			if mg.Tid != tid || mg.AtNs > now {
				continue
			}
			if mg.ToCPU < 0 || mg.ToCPU >= pl.NumCores() {
				return nil, fmt.Errorf("sim: migration to invalid CPU %d", mg.ToCPU)
			}
			from, to := w.typ, pl.ClusterOf(mg.ToCPU)
			w.cpu = mg.ToCPU
			if from != to {
				e.activeInCluster[from]--
				e.activeInCluster[to]++
				if w.cur >= 0 {
					loops[w.cur].engaged[from]--
					loops[w.cur].engaged[to]++
				}
				w.typ = to
				// Cluster occupancies changed; refresh every speed.
				for li := range loops {
					e.refreshSpeed(&loops[li])
					if m, isMig := loops[li].sched.(core.Migratable); isMig {
						m.Migrate(tid, to, now)
					}
				}
			}
			e.migs = append(e.migs[:i], e.migs[i+1:]...)
			i--
		}
		li := w.cur
		if !fork {
			if li = e.pick(tid, now); li < 0 {
				continue // parked until its next arrival
			}
		}

		l := &loops[li]
		asg, ok := l.sched.Next(tid, now)
		// Charge the runtime-call overhead whether or not work was handed
		// out (the final empty call still costs a pool access). Contention
		// is charged by the occupancy of the accessed shard's line among
		// the workers engaged on THIS loop.
		contend := contenders(l.engaged, l.engagedTotal, w.typ, asg.Origin)
		ovhNs := float64(asg.PoolAccesses)*(ov.PoolAccessNs+ov.ContentionNs*float64(contend)) +
			float64(asg.Timestamps)*ov.TimestampNs
		l.res.PoolAccesses += int64(asg.PoolAccesses)
		if !ok {
			e.retire(tid, li, now, asg, ovhNs)
			continue
		}
		// Locality penalty: a chunk that does not extend the thread's
		// previous one in this loop lands cold in the cache (§2), and the
		// miss cost is tiered by how far the chunk's home pool line sits
		// from the consuming core (home / same-package / cross-package).
		if asg.Lo != l.lastHi[tid] {
			ovhNs += localityNs(ov, dist, w.typ, asg.Origin)
		}
		l.lastHi[tid] = asg.Hi

		units := l.spec.Cost.RangeUnits(asg.Lo, asg.Hi)
		execNs := units / l.speed[tid]
		schedEnd := now + int64(ovhNs)
		runEnd := schedEnd + int64(execNs)
		if cfg.Trace != nil {
			cfg.Trace.Add(tid, now, schedEnd, trace.Sched)
			cfg.Trace.Add(tid, schedEnd, runEnd, trace.Running)
		}
		if cfg.Recorder != nil {
			cfg.Recorder.Chunk(trace.ChunkEvent{TimeNs: now, Tid: tid, Loop: li,
				Lo: asg.Lo, Hi: asg.Hi, Shard: w.typ, Origin: asg.Origin,
				Cost: units, ExecNs: int64(execNs), PoolAccesses: asg.PoolAccesses,
				Timestamps: asg.Timestamps})
		}
		if l.met != nil {
			c := l.met.Cell(tid)
			c.Grant(asg.N(), obs.Tier(dist, w.typ, asg.Origin))
			c.Credit(asg.CreditClaimed, asg.CreditReturned)
			c.Sched(int64(ovhNs))
			c.Busy(int64(execNs))
		}
		l.res.SchedNs += int64(ovhNs)
		l.res.Iters[tid] += asg.N()
		w.clock = runEnd
	}

	results := make([]LoopResult, nl)
	var maxEnd int64
	for li := range loops {
		results[li] = loops[li].res
		maxEnd = max(maxEnd, results[li].End)
	}
	if cfg.Recorder != nil {
		if cfg.Trace != nil {
			cfg.Recorder.AttachTimeline(cfg.Trace)
		}
		cfg.Recorder.EndRun(maxEnd - startNs)
	}
	return results, nil
}

// setCur moves worker tid onto loop li (-1: none), keeping the engaged
// counts in step.
func (e *engine) setCur(tid, li int) {
	w := &e.ws[tid]
	if w.cur >= 0 {
		e.loops[w.cur].engaged[w.typ]--
		e.loops[w.cur].engagedTotal--
	}
	if li >= 0 {
		e.loops[li].engaged[w.typ]++
		e.loops[li].engagedTotal++
	}
	w.cur = li
}

// refreshSpeed recomputes loop l's per-worker chunk speed from the workers'
// CPUs and the clusters' occupancy.
func (e *engine) refreshSpeed(l *simLoop) {
	pl := e.cfg.Platform
	for tid := range e.ws {
		w := &e.ws[tid]
		l.speed[tid] = pl.Speed(w.cpu, l.spec.Profile, e.activeInCluster[w.typ])
	}
}

// pick returns the loop worker tid serves next in the persistent fleet, or
// -1 after parking the worker at its next arrival.
func (e *engine) pick(tid int, now int64) int {
	w := &e.ws[tid]
	// A worker only sees loops that have arrived by its own clock.
	arrived := 0
	for _, at := range e.arrive {
		if at <= now {
			arrived++
		}
	}
	// Re-enter the policy when the granted burst is exhausted, the served
	// loop has retired this worker, or a loop arrived since the grant (the
	// registry's generation check: an unbounded single-tenant burst must
	// yield the moment a second tenant shows up).
	li := w.cur
	if li < 0 || w.burst <= 0 || w.retired[li] || arrived != w.grantArrived {
		e.cands = e.cands[:0]
		for i, at := range e.arrive {
			if at <= now && !w.retired[i] {
				e.cands = append(e.cands, fair.Candidate{ID: uint64(i),
					Weight: max(e.loops[i].spec.Weight, 1), CoreType: w.typ, SF: e.loops[i].liveSF})
			}
		}
		if len(e.cands) == 0 {
			// Nothing runnable yet: idle forward to the next arrival this
			// worker still owes a retirement to. One must exist — pending >
			// 0 and every arrived loop would have been a candidate.
			next := int64(-1)
			for i, at := range e.arrive {
				if at > now && !w.retired[i] && (next == -1 || at < next) {
					next = at
				}
			}
			w.clock = next
			e.setCur(tid, -1)
			w.burst = 0
			return -1
		}
		idx, burst := e.policy.Pick(tid, e.cands)
		if idx < 0 || idx >= len(e.cands) {
			idx = 0
		}
		li = int(e.cands[idx].ID)
		e.setCur(tid, li)
		w.burst = max(burst, 1)
		w.grantArrived = arrived
	}
	w.burst--
	return li
}

// retire books worker tid's final, empty runtime call on loop li — the one
// that observed the drained pool — and releases the loop's barrier once
// every worker has retired from it. A worker retired from every loop
// sleeps at the done clock.
func (e *engine) retire(tid, li int, now int64, asg core.Assign, ovhNs float64) {
	w, l := &e.ws[tid], &e.loops[li]
	end := now + int64(ovhNs)
	if e.cfg.Trace != nil {
		e.cfg.Trace.Add(tid, now, end, trace.Sched)
	}
	if e.cfg.Recorder != nil {
		e.cfg.Recorder.Chunk(trace.ChunkEvent{TimeNs: now, Tid: tid, Loop: li,
			Shard: w.typ, Origin: asg.Origin, PoolAccesses: asg.PoolAccesses,
			Timestamps: asg.Timestamps, Retire: true})
	}
	if l.met != nil {
		c := l.met.Cell(tid)
		c.Sched(int64(ovhNs))
		c.Credit(asg.CreditClaimed, asg.CreditReturned)
	}
	l.res.SchedNs += int64(ovhNs)
	l.res.Finish[tid] = end
	w.clock = end
	// The worker is done scheduling this loop; drop it from the engaged
	// counts now (not at the next policy grant) so a fully retired worker
	// cannot leak an engaged slot forever.
	e.setCur(tid, -1)
	w.retired[li] = true
	l.nretired++
	if w.pending--; w.pending == 0 {
		w.clock = done
	}
	if l.nretired == len(e.ws) {
		e.release(li)
	}
}

// release closes loop li's barrier: End is the last retirement, to which
// fork mode adds the join half of the fork/join cost. Fork mode also books
// the fork/join cost, the barrier's Sync/join trace intervals, each
// worker's barrier-wait idle time and the loop's energy. Then it takes the
// final SF estimate and the metrics snapshot.
func (e *engine) release(li int) {
	cfg := e.cfg
	l := &e.loops[li]
	res := &l.res
	maxFinish := int64(0)
	for _, f := range res.Finish {
		maxFinish = max(maxFinish, f)
	}
	res.End = maxFinish
	if e.policy == nil {
		pl := cfg.Platform
		joinNs := int64(pl.Overhead.ForkJoinNs) - e.forkNs
		res.End += joinNs
		res.SchedNs += int64(len(e.ws))*e.forkNs + joinNs
		res.ClusterEnergyJ = make([]float64, len(pl.Clusters))
		for tid, fin := range res.Finish {
			if cfg.Trace != nil {
				cfg.Trace.Add(tid, fin, maxFinish, trace.Sync)
				cfg.Trace.Add(tid, maxFinish, res.End, trace.Sched)
			}
			if l.met != nil {
				// Quiescent merge (obs doc.go, invariant 5): no worker runs,
				// so writing fork/join and barrier-wait time into every cell
				// is safe.
				c := l.met.Cell(tid)
				if gap := maxFinish - fin; gap > 0 {
					c.Idle(gap)
				}
				c.Sched(e.forkNs + joinNs)
			}
			// Energy: each worker's core draws ActiveW until the worker
			// reaches the barrier and IdleW while it waits for release.
			typ := e.ws[tid].typ
			ct := &pl.Clusters[typ].Type
			j := (float64(fin-res.Start)*ct.ActiveW + float64(res.End-fin)*ct.IdleW) * 1e-9
			res.ClusterEnergyJ[typ] += j
			res.EnergyJ += j
		}
	}
	if est, isEst := l.sched.(core.SFEstimator); isEst {
		if sf, ready := est.SFEstimate(); ready {
			res.SFEstimate = sf
		}
	}
	if l.met != nil {
		// Quiescent merge: no worker will touch this loop's cells again.
		if rc, isRC := l.sched.(core.ReweightCounter); isRC {
			l.met.Cell(0).SetReweights(rc.PoolReweights())
		}
		snap := l.met.Snapshot()
		res.Metrics = &snap
	}
	if cfg.Recorder != nil && res.SFEstimate != nil {
		cfg.Recorder.SFSample(trace.SFSample{TimeNs: res.End, Loop: li,
			SF: append([]float64(nil), res.SFEstimate...)})
	}
	if rp, isRet := e.policy.(fair.Retirer); isRet {
		rp.Retire(uint64(li)) // drop cursors naming the finished loop
	}
}
