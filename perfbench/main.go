// Command perfbench is the repository's benchmark. It runs one workload
// against the repo's public Go packages, checks the outputs, and prints one
// JSON result line last:
//
//	bash perfbench/run.sh --workload apps --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - apps: five real kernels (Monte-Carlo EP, blackscholes, stencil rows,
//     SpMV rows, BFS levels) through rt.Team fork/join under the paper's six
//     schedules on the 1B+1S platform, checked against a serial run.
//   - sim-sweep: the virtual-time engine alone: the Fig. 6/7 sweep on
//     Platforms A and B and the platform zoo (checked against a committed
//     digest), a multi-tenant sim.RunLoops mirror of serve, single-loop
//     sim.RunLoop queries, and a record -> JSONL -> decode -> replay.Exact
//     round trip.
//
// The multi-tenant serve path (an open loop of Poisson arrivals into one
// persistent rt.Registry, see serve.go) is no workload of its own: its
// latency tails swing from run to run by more than any bound the benchmark
// may set on a 2-CPU host. Every --trace 1 run makes short traced serve
// passes, which report the rt Registry, fair and obs layers.
//
// With --trace 0 the result carries the end-to-end metrics, each defined on
// both workloads. A run repeats the workload's fixed work until --seconds
// have passed, and each timing comes from the fastest repetition (for most
// latencies, the fastest run of each loop or query): host interference only
// ever slows a repetition down, and on a shared 2-CPU VM the fastest of a
// run's repetitions varies about half as much from run to run as their
// median.
//
//	setup_s       median over three set-ups of input generation, platform
//	              load, team creation and warm-up
//	run_s         wall time of the fastest repetition of the fixed work
//	lat_ms_p50/99 apps: fork-to-join wall time per parallel loop;
//	              sim-sweep: wall time of one single-loop sim.RunLoop query
//	              (a mirror loop under dynamic,1). Each repetition times the
//	              same loops or queries in the same order, and the
//	              percentile is taken over each one's fastest time in the
//	              repetitions, except apps' lat_ms_p50: the median over
//	              every loop of every repetition. A single repetition's p99
//	              counts the operations the host happened to interrupt;
//	              apps' median loop is a ~0.15 ms stencil step whose fastest
//	              time swings between processes, while the median of all
//	              its runs does not
//	achieved_rps  apps: parallel loops per wall second; sim-sweep: Fig. 6/7
//	              and zoo cells simulated per wall second; each the highest
//	              over the repetitions
//	aid_hybrid_speedup, aid_dynamic_speedup
//	              geometric mean over kernels (apps, the fastest wall time
//	              of each cell) or over the Fig. 6/7 apps on Platforms A
//	              and B (sim-sweep, modeled time) of T(static) /
//	              T(aid-hybrid) and T(static) / T(aid-dynamic)
//	peak_rss_mb   peak resident memory of the process
//
// Other figures (per-class mirror tails, fail_ratio) are printed as
// "metric" lines before the result. With --trace 1 the result carries the
// per-layer metrics instead: the focal workload runs half its time untraced
// and half traced (the difference is bench.trace_overhead_pct), the other
// workload and the serve path run short traced passes, and layer probes
// time calls into core, pool, fair and rt directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/amp"
	"repro/internal/exps"
	"repro/internal/fair"
)

const benchmarkFile = "BENCHMARK.json"

// setupReps is how many times a --trace 0 run sets its workload up; setup_s
// is the median.
const setupReps = 3

var workloads = []string{"apps", "sim-sweep"}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: apps or sim-sweep")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "seconds to measure")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	printDigest := flag.Bool("print-digest", false, "print the digest of the sim-sweep figure sweep (the content of "+digestFile+") and exit")
	flag.Parse()
	if *printDigest {
		figA, errA := exps.RunFig6(amp.PlatformA())
		figB, errB := exps.RunFig6(amp.PlatformB())
		zoo, errZ := exps.RunZoo()
		for _, err := range []error{errA, errB, errZ} {
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
		}
		fmt.Println(sweepDigest(figA, figB, zoo))
		return 0
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", workloads)
		return 2
	}
	fmt.Println(hostLine())
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *workload, *seed, *seconds, *traced)
	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second, res: newResult()}
	var err error
	if *traced == 1 {
		err = b.traced(*workload)
	} else {
		err = b.untraced(*workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *traced == 0 {
		b.res.set("peak_rss_mb", rss, "MB")
	}
	b.note("peak_rss_mb", rss, "MB", "")
	b.note("fail_ratio", float64(b.res.Failed)/float64(max(b.res.Attempted, 1)), "ratio",
		fmt.Sprintf("%d of %d operations", b.res.Failed, b.res.Attempted))
	if b.res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	if err := b.res.checkNames(benchmarkFile, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := b.res.writeJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench is one benchmark run.
type bench struct {
	seed    uint64
	seconds time.Duration
	res     *result
}

// note prints one human-readable metric line.
func (b *bench) note(name string, v float64, unit, how string) {
	if how != "" {
		how = " (" + how + ")"
	}
	fmt.Printf("metric %s %.6g %s%s\n", name, v, unit, how)
}

// e2e sets an end-to-end metric and prints it.
func (b *bench) e2e(name string, v float64, unit, how string) {
	b.res.set(name, v, unit)
	b.note(name, v, unit, how)
}

// timedSetups runs setup setupReps times and returns the last instance and
// the median set-up time; earlier instances are released with drop.
func timedSetups[T any](setup func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var xs []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
		if i > 0 {
			drop(last)
			// Collect the dropped instance now, so the peak resident set
			// holds one set-up, not as many as garbage collection timing
			// happens to keep.
			runtime.GC()
		}
		last = v
	}
	return last, median(xs), nil
}

func (b *bench) untraced(workload string) error {
	switch workload {
	case "apps":
		a, setupS, err := timedSetups(func() (*appsSetup, error) { return setupApps(b.seed, b.res) }, func(*appsSetup) {})
		if err != nil {
			return err
		}
		b.e2e("setup_s", setupS, "s", fmt.Sprintf("median of %d", setupReps))
		tot, err := appsPass(a.bench, b.seconds, nil, b.res)
		if err != nil {
			return err
		}
		b.appsE2E(a.bench, tot)
	case "sim-sweep":
		s, setupS, err := timedSetups(func() (*simSetup, error) { return setupSim(b.seed, b.res) }, func(*simSetup) {})
		if err != nil {
			return err
		}
		b.e2e("setup_s", setupS, "s", fmt.Sprintf("median of %d", setupReps))
		reps, err := simPass(s, b.seconds, b.res)
		if err != nil {
			return err
		}
		b.simE2E(s, reps)
	}
	return nil
}

// appsSetup is a ready apps workload.
type appsSetup struct {
	pl    *amp.Platform
	bench *appsBench
}

// setupApps loads the platform, generates the inputs, runs the serial
// references, builds the teams and warms up with one repetition.
func setupApps(seed uint64, res *result) (*appsSetup, error) {
	pl, err := loadPlatform()
	if err != nil {
		return nil, err
	}
	ab, err := newAppsBench(pl, seed)
	if err != nil {
		return nil, err
	}
	r, err := ab.rep(nil)
	if err != nil {
		return nil, err
	}
	checkApps(res, r)
	return &appsSetup{pl: pl, bench: ab}, nil
}

func checkApps(res *result, r appsRep) {
	res.Attempted += r.loops
	if r.bad > 0 {
		res.fail(r.bad, "apps: %d loops in cells whose output differs from the serial reference", r.bad)
	}
}

// appsPass runs repetitions until d has elapsed (at least one).
func appsPass(ab *appsBench, d time.Duration, tr *appsTracer, res *result) (*appsTotals, error) {
	tot := &appsTotals{}
	start := time.Now()
	for len(tot.reps) == 0 || time.Since(start) < d {
		r, err := ab.rep(tr)
		if err != nil {
			return nil, err
		}
		checkApps(res, r)
		tot.add(r)
	}
	return tot, nil
}

func (b *bench) appsE2E(ab *appsBench, tot *appsTotals) {
	fmt.Print(tot.table(ab))
	reps, n := len(tot.reps), len(tot.reps[0].latMs)
	totals := make([]float64, reps)
	for i, r := range tot.reps {
		totals[i] = r.totalS
	}
	b.e2e("run_s", tot.runS(), "s", fmt.Sprintf("fastest of %d repetitions, median %.4g, slowest %.4g", reps, median(totals), slices.Max(totals)))
	b.e2e("lat_ms_p50", tot.latMedian(), "ms", fmt.Sprintf("over %d repetitions of %d loops", reps, n))
	b.e2e("lat_ms_p99", tot.latTail(99), "ms", fmt.Sprintf("over %d loops, each its fastest in %d repetitions; tail rule allows p%g", n, reps, tailPercentile(n)))
	b.e2e("achieved_rps", tot.loopsPerS(), "1/s", "parallel loops per wall second, highest over repetitions")
	b.e2e("aid_hybrid_speedup", tot.speedup(len(ab.kernels), schedAIDHybrid), "x", "gmean over kernels of T(static)/T(aid-hybrid,80,1), wall time")
	b.e2e("aid_dynamic_speedup", tot.speedup(len(ab.kernels), schedAIDDynamic), "x", "gmean over kernels of T(static)/T(aid-dynamic,1,5), wall time")
}

// simSetup is a ready sim-sweep workload and its warm-up repetition, whose
// mirror run later repetitions must reproduce.
type simSetup struct {
	bench *simBench
	first simRep
}

func setupSim(seed uint64, res *result) (*simSetup, error) {
	pl, err := loadPlatform()
	if err != nil {
		return nil, err
	}
	classes, err := fair.ParseClasses(serveClasses)
	if err != nil {
		return nil, err
	}
	sb, err := newSimBench(pl, classes, seed)
	if err != nil {
		return nil, err
	}
	first, err := sb.rep()
	if err != nil {
		return nil, err
	}
	checkSim(res, sb, first, first)
	return &simSetup{bench: sb, first: first}, nil
}

func checkSim(res *result, sb *simBench, r, first simRep) {
	res.Attempted += simOpsPerRep
	if bad := sb.check(r, first); bad > 0 {
		res.fail(bad, "sim-sweep: %d failed operations", bad)
	}
}

// simPass runs repetitions until d has elapsed (at least one). Each starts
// from a collected heap: the repetition allocates in bursts (the recorded
// run, its JSONL buffer and the decoded copy), and where a collection
// happened to fall among them set the process's peak resident memory, which
// then swung by a fifth from run to run.
func simPass(s *simSetup, d time.Duration, res *result) ([]simRep, error) {
	var reps []simRep
	start := time.Now()
	for len(reps) == 0 || time.Since(start) < d {
		runtime.GC()
		r, err := s.bench.rep()
		if err != nil {
			return nil, err
		}
		checkSim(res, s.bench, r, s.first)
		reps = append(reps, r)
	}
	return reps, nil
}

func field(reps []simRep, f func(simRep) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

func (b *bench) simE2E(s *simSetup, reps []simRep) {
	totals := field(reps, func(r simRep) float64 { return r.totalS })
	nq := len(reps[0].queryMs)
	sets := make([][]float64, len(reps))
	for i, r := range reps {
		sets[i] = r.queryMs
	}
	queryMs := fastestEach(sets)
	b.e2e("run_s", slices.Min(totals), "s", fmt.Sprintf("fastest of %d repetitions, median %.4g, slowest %.4g", len(reps), median(totals), slices.Max(totals)))
	b.e2e("lat_ms_p50", pct(queryMs, 50), "ms", fmt.Sprintf("over %d single-loop sim.RunLoop queries, each its fastest wall time in %d repetitions", nq, len(reps)))
	b.e2e("lat_ms_p99", pct(queryMs, 99), "ms", fmt.Sprintf("over %d single-loop sim.RunLoop queries, each its fastest wall time in %d repetitions; tail rule allows p%g", nq, len(reps), tailPercentile(nq)))
	b.e2e("achieved_rps", slices.Max(field(reps, func(r simRep) float64 { return float64(r.sweepCells) / r.sweepS })), "1/s", "Fig. 6/7 and zoo cells simulated per wall second, highest over repetitions")
	b.note("mirror_loops_per_s", median(field(reps, func(r simRep) float64 { return float64(len(s.bench.specs)) / r.multiS })), "1/s", "serve mirror loops simulated per wall second")
	b.note("mirror_lat_ms_p50", median(s.first.latMs), "ms", "modeled")
	b.note("mirror_lat_ms_p99", pct(s.first.latMs, 99), "ms", "modeled")
	b.e2e("aid_hybrid_speedup", s.first.hybrid, "x", "gmean over Fig. 6/7 apps on A and B of T(static(BS))/T(AID-hybrid), modeled")
	b.e2e("aid_dynamic_speedup", s.first.dynamic, "x", "gmean over Fig. 6/7 apps on A and B of T(static(BS))/T(AID-dynamic), modeled")
	for ci, c := range s.bench.classes {
		b.note("lat_ms_p99_"+c.Name, pct(s.first.classLatMs[ci], 99), "ms", "modeled")
	}
}
