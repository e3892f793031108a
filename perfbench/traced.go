package main

import (
	"fmt"
	"time"
)

// The serve passes of a traced run: long enough at serveRate that the p99s
// they report have ten or more samples beyond them (the tail rule). The
// fine-grain pass is longer because the defect it shows sheds requests,
// and its p99 is over the completed ones.
const (
	serveWindow     = 3 * time.Second
	serveFineWindow = 5 * time.Second
)

// traced is a --trace 1 run: the focal workload half untraced and half
// traced, one short traced pass of the other workload and of the serve
// path, and the layer probes. Every per-layer metric is reported whatever
// the focus.
func (b *bench) traced(focal string) error {
	half := b.seconds / 2
	var overheadPct float64
	res := b.res

	// rt Team path, core and pool, from apps.
	a, err := setupApps(b.seed, res)
	if err != nil {
		return err
	}
	for ki, k := range a.bench.kernels {
		res.set("bench.serial_s."+k.name, a.bench.serialS[ki], "s")
	}
	tr := newAppsTracer(len(a.bench.kernels))
	if focal == "apps" {
		base, err := appsPass(a.bench, half, nil, res)
		if err != nil {
			return err
		}
		tot, err := appsPass(a.bench, half, tr, res)
		if err != nil {
			return err
		}
		overheadPct = 100 * (tot.runS()/base.runS() - 1)
	} else if _, err := appsPass(a.bench, 0, tr, res); err != nil {
		return err
	}
	tr.report(res, a.bench)
	fj, err := forkJoinUS(a.pl)
	if err != nil {
		return err
	}
	res.set("rt.fork_join_us", fj, "us")
	for si, text := range appSchedules {
		ns, err := schedNextNS(a.pl, a.bench.scheds[si])
		if err != nil {
			return err
		}
		res.set("core.next_ns."+kindName(text), ns, "ns")
	}
	res.set("pool.claim_ns.strict", claimNS(a.pl, false), "ns")
	res.set("pool.claim_ns.credit", claimNS(a.pl, true), "ns")

	// rt Registry path, fair and obs, from the serve path.
	s, err := setupServe(b.seed)
	if err != nil {
		return err
	}
	defer s.close()
	sr, err := runServe(s.reg, s.sched, s.classes, s.plan, b.seed, true)
	if err != nil {
		return err
	}
	checkServe(res, sr)
	sr.report(res)
	res.set("fair.pick_ns", pickNS(sr.counts, s.classes), "ns")
	b.note("serve_requests", float64(len(sr.latMs)), "count", fmt.Sprintf("tail rule allows p%g", tailPercentile(len(sr.latMs))))
	// The fine-grain probe keeps the known aid-dynamic,1,5 serve defect in
	// view: its sheds are the defect, so only a coverage error fails it.
	finePlan, err := servePlan(serveRate, serveFineWindow, len(s.classes), b.seed^0xf1e)
	if err != nil {
		return err
	}
	fr, err := runServe(s.reg, s.fine, s.classes, finePlan, b.seed, false)
	if err != nil {
		return err
	}
	res.Attempted += int64(fr.offered - fr.shed)
	if fr.bad > 0 {
		res.fail(int64(fr.bad), "serve %s: %d requests did not cover their iterations exactly once", serveFineSched, fr.bad)
	}
	res.set("rt.serve_fine_p99_ms", pct(fr.latMs, 99), "ms")
	b.note("rt.serve_fine_shed", float64(fr.shed), "count", fmt.Sprintf("of %d offered under %s; %d completed, tail rule allows p%g",
		fr.offered, serveFineSched, len(fr.latMs), tailPercentile(len(fr.latMs))))

	// sim, trace and replay, from sim-sweep.
	ss, err := setupSim(b.seed, res)
	if err != nil {
		return err
	}
	var reps []simRep
	if focal == "sim-sweep" {
		// sim-sweep has no tracing of its own beyond the timers every
		// repetition takes, so the two halves differ only by noise.
		base, err := simPass(ss, half, res)
		if err != nil {
			return err
		}
		if reps, err = simPass(ss, half, res); err != nil {
			return err
		}
		tot := func(rs []simRep) float64 { return median(field(rs, func(r simRep) float64 { return r.totalS })) }
		overheadPct = 100 * (tot(reps)/tot(base) - 1)
	} else if reps, err = simPass(ss, 0, res); err != nil {
		return err
	}
	med := func(f func(simRep) float64) float64 { return median(field(reps, f)) }
	multiS := med(func(r simRep) float64 { return r.multiS })
	res.set("sim.sweep_s", med(func(r simRep) float64 { return r.sweepS }), "s")
	res.set("sim.multi_s", multiS, "s")
	res.set("sim.events_per_s", float64(reps[0].events)/med(func(r simRep) float64 { return r.recordS }), "1/s")
	mb := float64(reps[0].bytes) / 1e6
	res.set("trace.encode_mb_s", mb/med(func(r simRep) float64 { return r.encodeS }), "MB/s")
	res.set("trace.decode_mb_s", mb/med(func(r simRep) float64 { return r.decodeS }), "MB/s")
	res.set("trace.record_bytes", float64(reps[0].bytes), "bytes")
	res.set("replay.exact_ms", 1e3*med(func(r simRep) float64 { return r.exactS }), "ms")

	res.set("bench.trace_overhead_pct", overheadPct, "%")
	for name, m := range res.Metrics {
		b.note(name, m.Value, m.Unit, "")
	}
	return nil
}
