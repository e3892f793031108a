// Package sim is the discrete-event execution engine of the reproduction:
// it runs OpenMP-style programs (sequences of serial phases and parallel
// loops) on a modeled asymmetric multicore platform in virtual time.
//
// Substituting simulation for the paper's physical testbeds is the central
// reproduction decision (see DESIGN.md): Go cannot pin OS threads to cores
// of chosen types, but every phenomenon the paper studies is a function of
// (a) per-loop big/small speed ratios and (b) runtime overhead per
// iteration-pool access — both first-class quantities in this model. The
// virtual clock has nanosecond resolution and the engine is fully
// deterministic: the same configuration always yields the same trace.
//
// One simulated worker thread is bound to each platform CPU according to
// the SB/BS convention (§5). Worker execution interleaves through one
// earliest-clock-first event loop; each scheduler invocation is charged the
// platform's pool-access, contention, timestamp and locality costs, and each
// chunk's execution time follows the platform speed model for the loop's
// instruction-mix profile. Both entry points drive that loop: RunLoops runs
// a persistent fleet shared by several loops under a fairness policy, and
// RunLoop is its fork mode — one loop that every worker joins at a fork and
// leaves at an implicit barrier, charged the platform's fork/join cost.
package sim

import (
	"fmt"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// CostModel gives the computational weight of loop iterations in abstract
// work units (1 unit ≈ 1 instruction of the modeled ISA).
type CostModel interface {
	// Units returns the cost of iteration i.
	Units(i int64) float64
	// RangeUnits returns the summed cost of iterations [lo, hi). It must
	// equal the sum of Units over the range; implementations provide
	// closed-form versions where possible because the simulator calls it
	// for every chunk.
	RangeUnits(lo, hi int64) float64
}

// UniformCost models loops whose iterations all cost the same (e.g. EP).
type UniformCost struct {
	PerIter float64
}

// Units implements CostModel.
func (u UniformCost) Units(int64) float64 { return u.PerIter }

// RangeUnits implements CostModel.
func (u UniformCost) RangeUnits(lo, hi int64) float64 { return float64(hi-lo) * u.PerIter }

// LinearCost models loops whose cost drifts linearly with the iteration
// index: Units(i) = Base + Slope·i. particlefilter's long-running loop —
// whose final iterations are the heaviest (§5A) — uses a positive slope.
type LinearCost struct {
	Base, Slope float64
}

// Units implements CostModel.
func (l LinearCost) Units(i int64) float64 { return l.Base + l.Slope*float64(i) }

// RangeUnits implements CostModel (closed form).
func (l LinearCost) RangeUnits(lo, hi int64) float64 {
	n := float64(hi - lo)
	// sum of indices lo..hi-1 = n*(lo+hi-1)/2
	return l.Base*n + l.Slope*n*(float64(lo+hi-1))/2
}

// FuncCost wraps an arbitrary per-iteration cost function. RangeUnits is
// computed by summation; prefer analytic models for very long loops.
type FuncCost struct {
	F func(i int64) float64
}

// Units implements CostModel.
func (f FuncCost) Units(i int64) float64 { return f.F(i) }

// RangeUnits implements CostModel.
func (f FuncCost) RangeUnits(lo, hi int64) float64 {
	sum := 0.0
	for i := lo; i < hi; i++ {
		sum += f.F(i)
	}
	return sum
}

// LoopSpec describes one parallel loop.
type LoopSpec struct {
	// Name identifies the loop in reports (e.g. "ep-main").
	Name string
	// NI is the trip count.
	NI int64
	// Profile is the loop body's instruction mix, which determines the
	// per-core-type speed (and therefore the loop's SF).
	Profile amp.Profile
	// Cost is the per-iteration work model.
	Cost CostModel
	// Weight is the loop's relative fairness share when several loops run
	// concurrently on one fleet (RunLoops); 0 selects the default weight 1.
	// RunLoop's fork mode never consults a fairness policy and ignores it.
	Weight int
	// Arrive is the loop's admission time on the virtual clock under
	// RunLoops — the open-loop arrival stamp. The loop is invisible to the
	// fairness policy before Arrive, and its latency is End-Arrive. Values at
	// or below the run's startNs (including the zero value) mean "admitted
	// at start", which keeps the closed-loop callers unchanged. RunLoop's
	// fork mode ignores it: the loop starts at the fork, startNs.
	Arrive int64
}

// Validate checks the loop description.
func (ls LoopSpec) Validate() error {
	if ls.NI < 0 {
		return fmt.Errorf("sim: loop %q has negative trip count %d", ls.Name, ls.NI)
	}
	if ls.Cost == nil {
		return fmt.Errorf("sim: loop %q has no cost model", ls.Name)
	}
	if ls.Weight < 0 {
		return fmt.Errorf("sim: loop %q has negative weight %d", ls.Name, ls.Weight)
	}
	return ls.Profile.Validate()
}

// SchedulerFactory builds a fresh scheduler for one execution of one loop.
// Scheduler instances are single use, so the engine calls the factory for
// every loop instance (and every repetition).
type SchedulerFactory func(info core.LoopInfo) (core.Scheduler, error)

// Config describes one simulated program execution.
type Config struct {
	// Platform is the modeled machine.
	Platform *amp.Platform
	// NThreads is the worker count (the paper runs one thread per core).
	NThreads int
	// Binding is the thread-to-core mapping convention (SB or BS).
	Binding amp.Binding
	// Factory builds the per-loop scheduler.
	Factory SchedulerFactory
	// FactoryNamed, when non-nil, takes precedence over Factory and also
	// receives the loop's name, letting experiments key behaviour per loop
	// (e.g. the per-loop offline-SF tables of §5C).
	FactoryNamed func(loopName string, info core.LoopInfo) (core.Scheduler, error)
	// Migrations lists OS-driven thread migrations to inject (§4.3). A
	// migration takes effect the next time the affected thread enters the
	// runtime system at or after AtNs — modeling the paper's proposal of a
	// signal delivered to the process, observed at the next runtime call.
	// Schedulers implementing core.Migratable are notified.
	Migrations []Migration
	// Recorder, when non-nil, captures the run as a serializable
	// trace.Record — loop descriptors, every chunk grant with its
	// runtime-cost metadata, AID phase transitions and the SF trajectory —
	// for internal/replay. Its Record().Trace() is the run's per-thread
	// timeline. A Recorder serves exactly one RunLoop or RunLoops call.
	Recorder *trace.Recorder
	// Metrics populates LoopResult.Metrics with the runtime-counter
	// snapshot (internal/obs) of each loop: chunks and steals by provenance
	// tier, credit traffic, and the virtual-time busy/sched/idle split. The
	// counters observe the same quantities the real-goroutine registry
	// counts, so cross-engine comparisons read the same schema. Counting
	// never perturbs the virtual clock.
	Metrics bool
}

// Migration is one OS-driven thread-to-core move.
type Migration struct {
	// AtNs is the earliest virtual time the migration can take effect.
	AtNs int64
	// Tid is the affected worker thread.
	Tid int
	// ToCPU is the destination CPU number.
	ToCPU int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Platform == nil {
		return fmt.Errorf("sim: nil platform")
	}
	if c.NThreads <= 0 || c.NThreads > c.Platform.NumCores() {
		return fmt.Errorf("sim: thread count %d out of range [1,%d]", c.NThreads, c.Platform.NumCores())
	}
	if c.Factory == nil && c.FactoryNamed == nil {
		return fmt.Errorf("sim: nil scheduler factory")
	}
	return nil
}

// buildScheduler invokes the configured factory for one loop execution.
func (c Config) buildScheduler(loopName string, info core.LoopInfo) (core.Scheduler, error) {
	if c.FactoryNamed != nil {
		return c.FactoryNamed(loopName, info)
	}
	return c.Factory(info)
}

// LoopResult reports one loop execution.
type LoopResult struct {
	// Start and End are the fork time and the barrier-release time.
	Start, End int64
	// PoolAccesses counts shared-pool atomic operations across all threads.
	PoolAccesses int64
	// SchedNs is the total runtime-system time summed over threads.
	SchedNs int64
	// Iters is the per-thread count of executed iterations.
	Iters []int64
	// Finish is each thread's arrival time at the implicit barrier.
	Finish []int64
	// SchedulerName records which method ran the loop.
	SchedulerName string
	// SFEstimate is the scheduler's online per-core-type speedup-factor
	// estimate at loop end (nil when the method derives none). The
	// cross-engine conformance harness compares it against the real-
	// goroutine runtime's estimate for the same workload.
	SFEstimate []float64
	// SFTrajectory is the time-ordered sequence of SF tables the scheduler
	// published while the loop ran — the estimate was live mid-run at each
	// point, not reconstructed at retirement. Offline-SF variants contribute
	// a single point at loop start; methods that estimate nothing leave it
	// nil.
	SFTrajectory []SFPoint
	// EnergyJ is the modeled energy of the loop in Joules, summed over the
	// worker-occupied cores: each worker draws its core type's ActiveW from
	// fork to its barrier arrival and IdleW from there to barrier release.
	// Unoccupied cores are not charged. Filled in fork mode (RunLoop);
	// RunLoops leaves it zero, since a persistent fleet's energy cannot be
	// attributed to one loop.
	EnergyJ float64
	// ClusterEnergyJ breaks EnergyJ down by platform cluster.
	ClusterEnergyJ []float64
	// Metrics is the loop's runtime-counter snapshot, populated when
	// Config.Metrics is set. In fork mode (RunLoop) IdleNs is each worker's
	// barrier wait and SchedNs includes the fork/join cost; RunLoops leaves
	// IdleNs zero, because a worker retired from one loop moves on to
	// others and its waits are not attributable to any single loop.
	Metrics *obs.Snapshot
}

// SFPoint is one timestamped speedup-factor-table publication.
type SFPoint struct {
	// TimeNs is the virtual time of the publishing phase transition.
	TimeNs int64
	// SF is the per-core-type table (immutable snapshot).
	SF []float64
}

// loopInfo builds the scheduler-facing description of a loop under cfg.
func loopInfo(cfg Config, ni int64) core.LoopInfo {
	return core.LoopInfo{
		NI:       ni,
		NThreads: cfg.NThreads,
		NumTypes: len(cfg.Platform.Clusters),
		TypeOf: func(tid int) int {
			return cfg.Platform.ClusterOf(cfg.Platform.CoreOf(tid, cfg.NThreads, cfg.Binding))
		},
		TypeDist: cfg.Platform.TypeDist(),
	}
}

// localityNs prices a chunk-discontinuity cache refill by the chunk's
// provenance: a chunk from the thread's home shard refills from the home
// cluster's LLC (base tier), a same-package foreign chunk crosses LLCs
// (foreign tier), a cross-package chunk pays the interconnect (remote
// tier). Shared-origin chunks (Origin < 0) have no provenance and charge
// the base tier, the pre-topology behavior.
func localityNs(ov amp.Overheads, dist [][]int, ownType, origin int) float64 {
	if origin < 0 || origin >= len(dist) {
		return ov.LocalityPenaltyNs
	}
	switch dist[ownType][origin] {
	case 0:
		return ov.LocalityPenaltyNs
	case 1:
		return ov.LocalityForeignNs
	default:
		return ov.LocalityRemoteNs
	}
}

// contenders returns how many OTHER threads an assignment's pool accesses
// contend with: threads actively scheduling on the origin shard's line,
// plus the claimer itself when it reached across (a foreign access adds
// one accessor the shard's home population does not include). A shared
// origin (Origin < 0) contends with every active thread — a single global
// line.
func contenders(activeByType []int, activeCount, ownType, origin int) int {
	var occ int
	if origin < 0 || origin >= len(activeByType) {
		occ = activeCount
	} else {
		occ = activeByType[origin]
		if origin != ownType {
			occ++
		}
	}
	if occ <= 1 {
		return 0
	}
	return occ - 1
}

// RunLoop simulates one execution of the loop starting at startNs and
// returns the result. The caller sequences loops and serial phases. It is
// the fork mode of the engine's one event loop (see simulate): every worker
// forks at startNs, serves this loop alone, and waits at its implicit
// barrier.
func RunLoop(cfg Config, spec LoopSpec, startNs int64) (LoopResult, error) {
	if err := cfg.Validate(); err != nil {
		return LoopResult{}, err
	}
	spec.Arrive = startNs // the fork admits the loop
	rs, err := simulate(cfg, []LoopSpec{spec}, nil, startNs)
	if err != nil {
		return LoopResult{}, err
	}
	return rs[0], nil
}

// MeasureLoopSF reproduces the paper's offline SF measurement (§2): run the
// loop with a single thread on a big core and again on a small core and
// return the completion-time ratio. The single-threaded runs see no LLC
// contention from sibling threads — the source of the offline-SF bias that
// Fig. 9c documents.
func MeasureLoopSF(pl *amp.Platform, spec LoopSpec) (float64, error) {
	oneThread := func(b amp.Binding) (int64, error) {
		cfg := Config{
			Platform: pl,
			NThreads: 1,
			Binding:  b,
			Factory: func(info core.LoopInfo) (core.Scheduler, error) {
				return core.NewStatic(info)
			},
		}
		r, err := RunLoop(cfg, spec, 0)
		if err != nil {
			return 0, err
		}
		return r.End - r.Start, nil
	}
	// BS puts the single thread on the highest CPU (big); SB on CPU 0 (small).
	tBig, err := oneThread(amp.BindBS)
	if err != nil {
		return 0, err
	}
	tSmall, err := oneThread(amp.BindSB)
	if err != nil {
		return 0, err
	}
	if tBig <= 0 {
		return 0, fmt.Errorf("sim: loop %q completed in non-positive time on big core", spec.Name)
	}
	return float64(tSmall) / float64(tBig), nil
}
