package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/amp"
	"repro/internal/exps"
	"repro/internal/fair"
	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// digestFile holds the SHA-256 of the sweep's virtual makespans. The sweep
// takes no seed, so its output is fixed until the model changes.
const digestFile = "perfbench/sim-digest.txt"

// The multi-tenant mirror replays the serve traffic shape in virtual time:
// the same offered rate, classes, 4:1 short/long mix and schedule, with a
// modeled per-iteration cost close to the real EP body's on the big core.
const (
	mirrorWindow = 2 * time.Second
	// mirrorPerIter is the modeled work of one iteration, in work units.
	mirrorPerIter = 20
	// recordLoops loops of the mirror, admitted together and a tenth of
	// their size, make the recorded run of the codec and replay round trip.
	recordLoops = 200
	// queryLoops single-loop what-if queries, each one loop of the mirror
	// at a tenth of its size (cycling through the mirror's loops), are
	// simulated alone with sim.RunLoop under querySched; their wall times
	// are the workload's latency. 1000 leave ten samples beyond p99.
	queryLoops = 1000
	querySched = "dynamic,1"
)

// Fig. 6/7 scheme labels of the speedup ratios.
const (
	figStatic     = "static(BS)"
	figAIDHybrid  = "AID-hybrid"
	figAIDDynamic = "AID-dynamic"
)

// simBench is the sim-sweep workload.
type simBench struct {
	pl      *amp.Platform
	specs   []sim.LoopSpec
	factory sim.SchedulerFactory
	query   sim.SchedulerFactory // querySched
	canon   string
	classes []fair.Class
	classOf []int  // QoS class of each mirror loop
	want    string // committed sweep digest
}

func newSimBench(pl *amp.Platform, classes []fair.Class, seed uint64) (*simBench, error) {
	b, err := os.ReadFile(digestFile)
	if err != nil {
		return nil, err
	}
	sched, err := rt.ParseSchedule(serveSched)
	if err != nil {
		return nil, err
	}
	qs, err := rt.ParseSchedule(querySched)
	if err != nil {
		return nil, err
	}
	plan, err := servePlan(serveRate, mirrorWindow, len(classes), seed)
	if err != nil {
		return nil, err
	}
	specs := make([]sim.LoopSpec, len(plan))
	classOf := make([]int, len(plan))
	for i, a := range plan {
		classOf[i] = a.class
		c := classes[a.class]
		specs[i] = sim.LoopSpec{Name: fmt.Sprintf("%s-%d", c.Name, i), NI: a.n, Profile: profEP,
			Cost: sim.UniformCost{PerIter: mirrorPerIter}, Weight: c.Weight, Arrive: int64(a.intended)}
	}
	return &simBench{pl: pl, specs: specs, factory: sched.Factory(), query: qs.Factory(), canon: sched.Canonical(),
		classes: classes, classOf: classOf, want: strings.TrimSpace(string(b))}, nil
}

// simRep is one repetition of the sim-sweep work.
type simRep struct {
	totalS, sweepS, multiS, recordS, encodeS, decodeS, exactS float64
	queryMs                                                   []float64 // wall time of each single-loop query
	digest                                                    string
	hybrid, dynamic                                           float64 // modeled gmean speedups over static
	sweepCells                                                int     // Fig. 6/7 cells and zoo rows simulated
	latMs                                                     []float64
	classLatMs                                                [][]float64
	ends                                                      []int64 // mirror barrier releases, for determinism
	events                                                    int     // chunk events of the recorded run
	bytes                                                     int
	replayErr                                                 error
}

func (b *simBench) rep() (simRep, error) {
	var r simRep
	start := time.Now()
	figA, err := exps.RunFig6(amp.PlatformA())
	if err != nil {
		return r, err
	}
	figB, err := exps.RunFig6(amp.PlatformB())
	if err != nil {
		return r, err
	}
	zoo, err := exps.RunZoo()
	if err != nil {
		return r, err
	}
	r.sweepS = time.Since(start).Seconds()
	r.digest = sweepDigest(figA, figB, zoo)
	r.sweepCells = len(zoo.Rows)
	var hy, dy []float64
	for _, f := range []exps.FigResult{figA, figB} {
		for _, a := range f.Apps {
			r.sweepCells += len(a.TimeNs)
			hy = append(hy, a.TimeNs[figStatic]/a.TimeNs[figAIDHybrid])
			dy = append(dy, a.TimeNs[figStatic]/a.TimeNs[figAIDDynamic])
		}
	}
	r.hybrid, r.dynamic = stats.GeoMean(hy), stats.GeoMean(dy)

	t0 := time.Now()
	cfg := sim.Config{Platform: b.pl, NThreads: nWorkers, Binding: amp.BindBS, Factory: b.factory}
	res, err := sim.RunLoops(cfg, b.specs, fair.NewWeightedRoundRobin(0), 0)
	if err != nil {
		return r, err
	}
	r.multiS = time.Since(t0).Seconds()
	r.classLatMs = make([][]float64, len(b.classes))
	for i, lr := range res {
		ms := float64(lr.End-b.specs[i].Arrive) / 1e6
		r.latMs = append(r.latMs, ms)
		c := b.classOf[i]
		r.classLatMs[c] = append(r.classLatMs[c], ms)
		r.ends = append(r.ends, lr.End)
	}

	// The recorded run admits its loops together: a run record keeps no
	// arrival stamps, so replay.Exact cannot reproduce a staggered run.
	recSpecs := make([]sim.LoopSpec, min(recordLoops, len(b.specs)))
	for i := range recSpecs {
		recSpecs[i] = b.specs[i]
		recSpecs[i].NI /= 10
		recSpecs[i].Arrive = 0
	}
	t0 = time.Now()
	rec := trace.NewRecorder()
	cfg.Recorder = rec
	if _, err := sim.RunLoops(cfg, recSpecs, fair.NewWeightedRoundRobin(0), 0); err != nil {
		return r, err
	}
	r.recordS = time.Since(t0).Seconds()
	for i := range recSpecs {
		rec.SetLoopSchedule(i, b.canon)
	}
	record := rec.Record()
	r.events = len(record.Events)

	t0 = time.Now()
	var buf bytes.Buffer
	if err := trace.EncodeJSONL(&buf, record); err != nil {
		return r, fmt.Errorf("encode record: %w", err)
	}
	r.encodeS = time.Since(t0).Seconds()
	r.bytes = buf.Len()
	t0 = time.Now()
	decoded, err := trace.DecodeJSONL(&buf)
	if err != nil {
		return r, fmt.Errorf("decode record: %w", err)
	}
	r.decodeS = time.Since(t0).Seconds()
	t0 = time.Now()
	// Exact verifies coverage, the event stream and the makespan of a sim
	// record bit for bit.
	_, r.replayErr = replay.Exact(decoded)
	r.exactS = time.Since(t0).Seconds()

	qcfg := sim.Config{Platform: b.pl, NThreads: nWorkers, Binding: amp.BindBS, Factory: b.query}
	for q := 0; q < queryLoops; q++ {
		spec := b.specs[q%len(b.specs)]
		spec.NI /= 10
		spec.Arrive = 0
		t0 := time.Now()
		if _, err := sim.RunLoop(qcfg, spec, 0); err != nil {
			return r, err
		}
		r.queryMs = append(r.queryMs, float64(time.Since(t0))/1e6)
	}
	r.totalS = time.Since(start).Seconds()
	return r, nil
}

// sweepDigest hashes every virtual completion time of the two figure
// sweeps and every zoo makespan and energy, in a fixed order and at full
// precision.
func sweepDigest(figs ...any) string {
	h := sha256.New()
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, v := range figs {
		switch v := v.(type) {
		case exps.FigResult:
			for _, a := range v.Apps {
				labels := make([]string, 0, len(a.TimeNs))
				for l := range a.TimeNs {
					labels = append(labels, l)
				}
				sort.Strings(labels)
				for _, l := range labels {
					fmt.Fprintf(h, "%s|%s|%s|%s\n", v.Platform, a.App, l, f(a.TimeNs[l]))
				}
			}
		case exps.ZooResult:
			for _, row := range v.Rows {
				fmt.Fprintf(h, "zoo|%s|%s|%s|%s\n", row.Platform, row.Scheme, f(row.MakespanNs), f(row.EnergyJ))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check compares a repetition against the committed digest, the round
// trip, and the first repetition's mirror (the same seed must give the same
// virtual run). It returns the number of failed operations.
func (b *simBench) check(r, first simRep) int64 {
	var bad int64
	if r.digest != b.want {
		bad += 3 // Fig. 6, Fig. 7 and the zoo
		fmt.Fprintf(os.Stderr, "perfbench: sim-sweep: sweep digest %s != committed %s (%s)\n", r.digest, b.want, digestFile)
	}
	if r.replayErr != nil {
		bad++
		fmt.Fprintf(os.Stderr, "perfbench: sim-sweep: replay.Exact: %v\n", r.replayErr)
	}
	if len(r.ends) != len(first.ends) {
		bad++
	} else {
		for i := range r.ends {
			if r.ends[i] != first.ends[i] {
				bad++
				fmt.Fprintf(os.Stderr, "perfbench: sim-sweep: mirror loop %d released at %d ns, first repetition %d ns\n", i, r.ends[i], first.ends[i])
				break
			}
		}
	}
	return bad
}

// simOpsPerRep counts a repetition's checked operations: Fig. 6, Fig. 7,
// the zoo, the mirror run, and the recorded run with its codec round trip
// and replay.
const simOpsPerRep = 5
