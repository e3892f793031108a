package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/amp"
	"repro/internal/kernels"
	"repro/internal/rt"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// appSchedules are the paper's six schedules, in GOOMP_SCHEDULE syntax. The
// first is the speedup baseline; aid-hybrid and aid-dynamic are the two
// speedup numerators.
var appSchedules = []string{"static", "dynamic,1", "guided,1", "aid-static,1", "aid-hybrid,80,1", "aid-dynamic,1,5"}

// Indexes into appSchedules: the speedup baseline, the first AID schedule
// (the AID schedules come last), and the two speedup numerators.
const (
	schedStatic     = 0
	schedFirstAID   = 3
	schedAIDHybrid  = 4
	schedAIDDynamic = 5
)

// parFor runs body over [0, n) as one parallel loop; body(tid, lo, hi)
// handles one chunk on worker tid.
type parFor func(n int64, body func(tid int, lo, hi int64)) error

// serialFor is the plain single-threaded loop the reference runs use.
func serialFor(n int64, body func(tid int, lo, hi int64)) error {
	body(0, 0, n)
	return nil
}

// appKernel is one real kernel with its inputs. run executes the kernel's
// whole job as a sequence of parallel loops through pf and returns a digest
// of every output bit; serial computes the same digest with a plain
// single-threaded run.
type appKernel struct {
	name    string
	prof    amp.Profile
	uniform bool // iterations cost the same (the ideal split is 1/(1+slowdown))
	run     func(pf parFor) (uint64, error)
	serial  func() uint64
}

// The kernel profiles give emulated small-core slowdowns from memory-bound
// (stencil, ~1.2) to compute-bound (EP, ~3.5) on the benchmark's platform.
var (
	profEP      = amp.Profile{ILP: 0.75, MemIntensity: 0.10}
	profBS      = amp.Profile{ILP: 0.78, MemIntensity: 0.15}
	profStencil = amp.Profile{ILP: 0.30, MemIntensity: 0.85}
	profSpMV    = amp.Profile{ILP: 0.40, MemIntensity: 0.65}
	profBFS     = amp.Profile{ILP: 0.50, MemIntensity: 0.50}
)

func appProfiles() []amp.Profile {
	return []amp.Profile{profEP, profBS, profStencil, profSpMV, profBFS}
}

func hashWords(words func(add func(uint64))) uint64 {
	h := fnv.New64a()
	var b [8]byte
	words(func(w uint64) {
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	})
	return h.Sum64()
}

func hashFloats(xs []float64) uint64 {
	return hashWords(func(add func(uint64)) {
		for _, x := range xs {
			add(math.Float64bits(x))
		}
	})
}

// perWorker is a worker-private accumulator padded to its own cache line.
type perWorker struct {
	v int64
	_ [56]byte
}

// newEP is Monte-Carlo EP: loops of independent samples, ~6 ns each.
func newEP(seed uint64) *appKernel {
	const loops, n = 16, 25_000
	rng := xrand.New(seed)
	seeds := make([]uint64, loops)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	var acc [nWorkers]perWorker
	return &appKernel{
		name: "ep", prof: profEP, uniform: true,
		run: func(pf parFor) (uint64, error) {
			hits := make([]uint64, loops)
			for j, s := range seeds {
				for t := range acc {
					acc[t].v = 0
				}
				if err := pf(n, func(tid int, lo, hi int64) {
					acc[tid].v += kernels.MonteCarloPiRange(lo, hi, s)
				}); err != nil {
					return 0, err
				}
				for t := range acc {
					hits[j] += uint64(acc[t].v)
				}
			}
			return hashWords(func(add func(uint64)) {
				for _, h := range hits {
					add(h)
				}
			}), nil
		},
		serial: func() uint64 {
			return hashWords(func(add func(uint64)) {
				for _, s := range seeds {
					add(uint64(kernels.MonteCarloPiRange(0, n, s)))
				}
			})
		},
	}
}

// newBlackScholes prices a book of options once per loop, at a volatility
// that shifts from loop to loop, summing each option's prices.
func newBlackScholes(seed uint64) *appKernel {
	const loops, n = 8, 16_384
	rng := xrand.New(seed)
	s, k, t, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		s[i] = 50 + 100*rng.Float64()
		k[i] = 50 + 100*rng.Float64()
		t[i] = 0.1 + 1.9*rng.Float64()
		v[i] = 0.1 + 0.5*rng.Float64()
	}
	out := make([]float64, n)
	price := func(j int, lo, hi int64) {
		vol := 1 + 0.05*float64(j)
		for i := lo; i < hi; i++ {
			out[i] += kernels.BlackScholesCall(s[i], k[i], t[i], 0.02, v[i]*vol)
		}
	}
	job := func(pf parFor) (uint64, error) {
		clear(out)
		for j := 0; j < loops; j++ {
			j := j
			if err := pf(n, func(_ int, lo, hi int64) { price(j, lo, hi) }); err != nil {
				return 0, err
			}
		}
		return hashFloats(out), nil
	}
	return &appKernel{
		name: "blackscholes", prof: profBS, uniform: true, run: job,
		serial: func() uint64 { d, _ := job(serialFor); return d },
	}
}

// newStencil runs heat-diffusion steps, one parallel loop over rows per
// step: many short loops of ~4 µs rows.
func newStencil(seed uint64) *appKernel {
	const w, h, steps = 1024, 64, 150
	rng := xrand.New(seed)
	init := kernels.NewGrid(w, h)
	for i := range init.Data {
		init.Data[i] = rng.Float64()
	}
	a, b := kernels.NewGrid(w, h), kernels.NewGrid(w, h)
	job := func(pf parFor) (uint64, error) {
		copy(a.Data, init.Data)
		src, dst := a, b
		for st := 0; st < steps; st++ {
			s, d := src, dst
			if err := pf(h, func(_ int, lo, hi int64) {
				for y := lo; y < hi; y++ {
					kernels.StencilRow(d, s, int(y), 0.2)
				}
			}); err != nil {
				return 0, err
			}
			src, dst = dst, src
		}
		return hashFloats(src.Data), nil
	}
	return &appKernel{
		name: "stencil", prof: profStencil, uniform: true, run: job,
		serial: func() uint64 { d, _ := job(serialFor); return d },
	}
}

// newSpMV runs repeated sparse products x <- A·x, one loop over rows each;
// row cost follows the row's non-zero count.
func newSpMV(seed uint64) *appKernel {
	const n, nnz, products = 16_384, 8, 40
	m := kernels.RandomCSR(n, nnz, seed)
	rng := xrand.New(seed ^ 0x5eed)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = rng.Float64()*2 - 1
	}
	x, y := make([]float64, n), make([]float64, n)
	job := func(pf parFor) (uint64, error) {
		copy(x, x0)
		src, dst := x, y
		for p := 0; p < products; p++ {
			s, d := src, dst
			if err := pf(n, func(_ int, lo, hi int64) {
				for r := lo; r < hi; r++ {
					m.SpMVRow(d, s, int(r))
				}
			}); err != nil {
				return 0, err
			}
			src, dst = dst, src
		}
		return hashFloats(src), nil
	}
	return &appKernel{
		name: "spmv", prof: profSpMV, run: job,
		serial: func() uint64 { d, _ := job(serialFor); return d },
	}
}

// newBFS runs level-synchronous BFS from many sources, one parallel loop per
// frontier: loops from one iteration to thousands, with degree-dependent
// iteration cost. The parallel body claims vertices with a CAS; the serial
// reference is kernels.BFSLevel.
func newBFS(seed uint64) *appKernel {
	const n, degree, sources = 16_384, 8, 20
	g := kernels.RandomGraph(n, degree, seed)
	rng := xrand.New(seed ^ 0xbf5)
	srcs := make([]int32, sources)
	for i := range srcs {
		srcs[i] = int32(rng.Intn(n))
	}
	level := make([]int32, n)
	reset := func(src int32) {
		for i := range level {
			level[i] = -1
		}
		level[src] = 0
	}
	var next [nWorkers]struct {
		v []int32
		_ [40]byte
	}
	var frontier []int32
	return &appKernel{
		name: "bfs", prof: profBFS,
		run: func(pf parFor) (uint64, error) {
			h := fnv.New64a()
			for _, src := range srcs {
				reset(src)
				frontier = append(frontier[:0], src)
				for depth := int32(1); len(frontier) > 0; depth++ {
					fr, d := frontier, depth
					for t := range next {
						next[t].v = next[t].v[:0]
					}
					if err := pf(int64(len(fr)), func(tid int, lo, hi int64) {
						nx := next[tid].v
						for _, u := range fr[lo:hi] {
							for _, v := range g.Adj[u] {
								if atomic.CompareAndSwapInt32(&level[v], -1, d) {
									nx = append(nx, v)
								}
							}
						}
						next[tid].v = nx
					}); err != nil {
						return 0, err
					}
					frontier = frontier[:0]
					for t := range next {
						frontier = append(frontier, next[t].v...)
					}
				}
				writeLevels(h, level)
			}
			return h.Sum64(), nil
		},
		serial: func() uint64 {
			h := fnv.New64a()
			for _, src := range srcs {
				reset(src)
				fr := []int32{src}
				for depth := int32(1); len(fr) > 0; depth++ {
					fr = kernels.BFSLevel(g, fr, level, depth)
				}
				writeLevels(h, level)
			}
			return h.Sum64()
		},
	}
}

func writeLevels(h interface{ Write([]byte) (int, error) }, level []int32) {
	b := make([]byte, 4*len(level))
	for i, l := range level {
		u := uint32(l)
		b[4*i], b[4*i+1], b[4*i+2], b[4*i+3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
	}
	h.Write(b)
}

// appsBench is the apps workload: every kernel under every schedule, each
// cell a fresh fork/join team per loop on the 1B+1S platform.
type appsBench struct {
	kernels []*appKernel
	ref     []uint64      // serial reference digests
	serialS []float64     // serial reference seconds per kernel
	teams   [][]*rt.Team  // [kernel][schedule]
	scheds  []rt.Schedule // parsed appSchedules
}

func newAppsBench(pl *amp.Platform, seed uint64) (*appsBench, error) {
	b := &appsBench{kernels: []*appKernel{
		newEP(seed), newBlackScholes(seed + 1), newStencil(seed + 2), newSpMV(seed + 3), newBFS(seed + 4),
	}}
	for _, text := range appSchedules {
		s, err := rt.ParseSchedule(text)
		if err != nil {
			return nil, err
		}
		b.scheds = append(b.scheds, s)
	}
	for _, k := range b.kernels {
		start := time.Now()
		b.ref = append(b.ref, k.serial())
		b.serialS = append(b.serialS, time.Since(start).Seconds())
		row := make([]*rt.Team, len(b.scheds))
		for si, s := range b.scheds {
			t, err := rt.NewTeam(rt.TeamConfig{Platform: pl, NThreads: nWorkers, Binding: amp.BindBS, Schedule: s, Profile: k.prof})
			if err != nil {
				return nil, err
			}
			row[si] = t
		}
		b.teams = append(b.teams, row)
	}
	return b, nil
}

// appsRep is one repetition: every cell once.
type appsRep struct {
	cellS  [][]float64 // [kernel][schedule] wall seconds
	totalS float64
	loops  int64
	bad    int64     // loops in cells whose output differed from the reference
	latMs  []float64 // per-loop fork-to-join latency
}

// rep runs every cell once. A non-nil tracer wraps every loop body.
func (b *appsBench) rep(tr *appsTracer) (appsRep, error) {
	r := appsRep{cellS: make([][]float64, len(b.kernels))}
	start := time.Now()
	for ki, k := range b.kernels {
		r.cellS[ki] = make([]float64, len(b.scheds))
		for si := range b.scheds {
			team := b.teams[ki][si]
			var loops int64
			pf := func(n int64, body func(tid int, lo, hi int64)) error {
				loops++
				if tr != nil {
					return tr.loop(team, ki, si, n, body, &r.latMs)
				}
				t0 := time.Now()
				_, err := team.ParallelForChunkedStats(n, body)
				r.latMs = append(r.latMs, float64(time.Since(t0))/1e6)
				return err
			}
			t0 := time.Now()
			d, err := k.run(pf)
			if err != nil {
				return r, fmt.Errorf("%s under %s: %w", k.name, appSchedules[si], err)
			}
			r.cellS[ki][si] = time.Since(t0).Seconds()
			r.loops += loops
			if d != b.ref[ki] {
				r.bad += loops
				fmt.Fprintf(os.Stderr, "perfbench: apps: %s under %s: output digest %x != serial reference %x\n",
					k.name, appSchedules[si], d, b.ref[ki])
			}
		}
	}
	r.totalS = time.Since(start).Seconds()
	if tr != nil {
		tr.reps++
	}
	return r, nil
}

// appsTotals aggregates timed repetitions. Every figure but the median
// latency comes from the fastest repetition (for cell times and tail
// latency, the fastest run of each cell or loop): host interference only
// ever slows a repetition down, and on a shared 2-CPU VM the fastest of a
// run's repetitions varies about half as much from run to run as their
// median.
type appsTotals struct {
	reps []appsRep
}

func (t *appsTotals) add(r appsRep) { t.reps = append(t.reps, r) }

// overReps is f of every repetition.
func (t *appsTotals) overReps(f func(appsRep) float64) []float64 {
	xs := make([]float64, len(t.reps))
	for i, r := range t.reps {
		xs[i] = f(r)
	}
	return xs
}

func (t *appsTotals) runS() float64 {
	return slices.Min(t.overReps(func(r appsRep) float64 { return r.totalS }))
}

// latMedian is the median fork-to-join latency over every loop of every
// repetition.
func (t *appsTotals) latMedian() float64 {
	var all []float64
	for _, r := range t.reps {
		all = append(all, r.latMs...)
	}
	return median(all)
}

// latTail is the p-th percentile over the loops of each loop's fastest
// fork-to-join latency over the repetitions.
func (t *appsTotals) latTail(p float64) float64 {
	sets := make([][]float64, len(t.reps))
	for i, r := range t.reps {
		sets[i] = r.latMs
	}
	return pct(fastestEach(sets), p)
}

// loopsPerS is the highest over the repetitions of loops completed per wall
// second.
func (t *appsTotals) loopsPerS() float64 {
	return slices.Max(t.overReps(func(r appsRep) float64 { return float64(r.loops) / r.totalS }))
}

// cellBest is the fastest wall time of one cell over the repetitions.
func (t *appsTotals) cellBest(ki, si int) float64 {
	return slices.Min(t.overReps(func(r appsRep) float64 { return r.cellS[ki][si] }))
}

// speedup is the geometric mean over kernels of T(static)/T(sched).
func (t *appsTotals) speedup(nk, si int) float64 {
	var xs []float64
	for ki := 0; ki < nk; ki++ {
		xs = append(xs, t.cellBest(ki, schedStatic)/t.cellBest(ki, si))
	}
	return stats.GeoMean(xs)
}

// table renders the per-cell fastest times.
func (t *appsTotals) table(b *appsBench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-13s", "apps cell ms")
	for _, s := range appSchedules {
		fmt.Fprintf(&sb, " %16s", s)
	}
	sb.WriteString("\n")
	for ki, k := range b.kernels {
		fmt.Fprintf(&sb, "%-13s", k.name)
		for si := range appSchedules {
			fmt.Fprintf(&sb, " %16.2f", 1e3*t.cellBest(ki, si))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// appsTracer wraps loop bodies to time every chunk on its worker and derives
// the rt Team-path and core per-layer metrics.
type appsTracer struct {
	base    time.Time
	reps    int // repetitions traced
	w       [nWorkers]workerTrace
	gaps    *stats.Histogram // ns, chunk gap minus the modeled throttle
	barrier []float64        // µs, last body end to ParallelFor return
	chunks  int64
	iters   int64
	poolAcc int64
	sumAvg  float64 // Σ over loops of the mean per-worker busy time
	sumMax  float64 // Σ over loops of the max per-worker busy time
	sfErr   []float64
	// split[ki][si] accumulates small-core and total iterations of AID
	// cells.
	splitSmall, splitAll [][]int64
	slow                 [][]float64 // [kernel] worker-1 slowdown
}

type workerTrace struct {
	lastEnd, lastBody int64
	busy              float64
	chunks, iters     int64
	gaps              *stats.Histogram
	_                 [16]byte
}

func newAppsTracer(nk int) *appsTracer {
	tr := &appsTracer{base: time.Now(), gaps: stats.NewHistogram()}
	for i := range tr.w {
		tr.w[i].gaps = stats.NewHistogram()
	}
	tr.splitSmall = make([][]int64, nk)
	tr.splitAll = make([][]int64, nk)
	tr.slow = make([][]float64, nk)
	for ki := range tr.splitSmall {
		tr.splitSmall[ki] = make([]int64, len(appSchedules))
		tr.splitAll[ki] = make([]int64, len(appSchedules))
	}
	return tr
}

func (tr *appsTracer) now() int64 { return int64(time.Since(tr.base)) }

// loop runs one traced parallel loop.
func (tr *appsTracer) loop(team *rt.Team, ki, si int, n int64, body func(tid int, lo, hi int64), latMs *[]float64) error {
	var slow [nWorkers]float64
	for t := range slow {
		slow[t] = team.Slowdown(t)
		w := &tr.w[t]
		w.lastEnd, w.lastBody, w.busy, w.chunks, w.iters = 0, 0, 0, 0, 0
	}
	if tr.slow[ki] == nil {
		tr.slow[ki] = slow[:]
	}
	wrapped := func(tid int, lo, hi int64) {
		w := &tr.w[tid]
		t0 := tr.now()
		if w.lastEnd != 0 {
			gap := t0 - w.lastEnd - int64(float64(w.lastBody)*(slow[tid]-1))
			w.gaps.Add(float64(gap))
		}
		body(tid, lo, hi)
		t1 := tr.now()
		w.lastEnd, w.lastBody = t1, t1-t0
		w.busy += float64(t1-t0) * slow[tid]
		w.chunks++
		w.iters += hi - lo
	}
	t0 := time.Now()
	st, err := team.ParallelForChunkedStats(n, wrapped)
	ret := tr.now()
	*latMs = append(*latMs, float64(time.Since(t0))/1e6)
	if err != nil {
		return err
	}
	var lastEnd int64
	var sum, most float64
	for t := range tr.w {
		w := &tr.w[t]
		lastEnd = max(lastEnd, w.lastEnd)
		sum += w.busy
		most = max(most, w.busy)
		tr.chunks += w.chunks
		tr.iters += w.iters
	}
	if lastEnd > 0 {
		tr.barrier = append(tr.barrier, float64(ret-lastEnd)/1e3)
	}
	tr.sumAvg += sum / nWorkers
	tr.sumMax += most
	tr.poolAcc += st.PoolAccesses
	if len(st.SFEstimate) > 0 {
		tr.sfErr = append(tr.sfErr, 100*math.Abs(st.SFEstimate[0]-slow[1])/slow[1])
	}
	if si >= schedFirstAID && len(st.Iters) == nWorkers {
		tr.splitSmall[ki][si] += st.Iters[1]
		tr.splitAll[ki][si] += st.Iters[0] + st.Iters[1]
	}
	return nil
}

// report sets the apps per-layer metrics. rt.chunks is per repetition;
// rt.imbalance_pct is obs.Analyze's 100·(1−avg/max), over busy time plus
// modeled throttle summed across loops; rt.split_err_pct is the mean
// absolute gap, in points, between the small core's iteration share and
// 1/(1+slowdown) over the AID cells of the uniform kernels; core.sf_err_pct
// is the mean relative error of the schedulers' final big-core SF estimate
// against the emulated slowdown.
func (tr *appsTracer) report(res *result, b *appsBench) {
	for _, w := range tr.w {
		tr.gaps.Merge(w.gaps)
	}
	gap, _ := tr.gaps.Percentile(50)
	res.set("rt.chunk_gap_ns", gap, "ns")
	res.set("rt.chunks", float64(tr.chunks)/float64(max(tr.reps, 1)), "count")
	res.set("rt.iters_per_chunk", float64(tr.iters)/math.Max(1, float64(tr.chunks)), "count")
	res.set("rt.barrier_us", median(tr.barrier), "us")
	imb := 0.0
	if tr.sumMax > 0 {
		imb = 100 * (1 - tr.sumAvg/tr.sumMax)
	}
	res.set("rt.imbalance_pct", imb, "%")
	// Finish-equalizing share of the small core: 1/(1+slowdown), over the
	// AID cells of the kernels whose iterations cost the same.
	var errs []float64
	for ki, k := range b.kernels {
		if !k.uniform || tr.slow[ki] == nil {
			continue
		}
		ideal := 1 / (1 + tr.slow[ki][1])
		for si := schedFirstAID; si < len(appSchedules); si++ {
			if tr.splitAll[ki][si] > 0 {
				share := float64(tr.splitSmall[ki][si]) / float64(tr.splitAll[ki][si])
				errs = append(errs, 100*math.Abs(share-ideal))
			}
		}
	}
	res.set("rt.split_err_pct", stats.Mean(errs), "%")
	res.set("core.pool_accesses_per_chunk", float64(tr.poolAcc)/math.Max(1, float64(tr.chunks)), "count")
	res.set("core.sf_err_pct", stats.Mean(tr.sfErr), "%")
}
