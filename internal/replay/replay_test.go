package replay

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/amp"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// recordSim records one simulated loop under the given schedule text.
func recordSim(t *testing.T, schedText string, spec sim.LoopSpec) *trace.Record {
	t.Helper()
	sched, err := rt.ParseSchedule(schedText)
	if err != nil {
		t.Fatal(err)
	}
	pl := amp.PlatformA()
	rec := trace.NewRecorder()
	cfg := sim.Config{
		Platform: pl,
		NThreads: pl.NumCores(),
		Factory:  sched.Factory(),
		Recorder: rec,
	}
	if _, err := sim.RunLoop(cfg, spec, 0); err != nil {
		t.Fatal(err)
	}
	rec.SetLoopSchedule(0, sched.Canonical())
	return rec.Record()
}

func epSpec() sim.LoopSpec {
	return sim.LoopSpec{
		Name:    "ep-main",
		NI:      16384,
		Profile: amp.Profile{ILP: 0.25, MemIntensity: 0.05, FootprintMB: 0.1},
		Cost:    sim.BlockNoisyCost{Base: 120000, Amp: 0.35, BlockLen: 256, Seed: 0xE9},
	}
}

func encode(t *testing.T, rec *trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTrip pushes a record through the codec, as the CLI does, so replay
// always sees a deserialized record.
func roundTrip(t *testing.T, rec *trace.Record) *trace.Record {
	t.Helper()
	got, err := trace.DecodeJSONL(bytes.NewReader(encode(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestExactReplaySimLoop is the core acceptance property: an exact replay
// of a sim-recorded run reproduces the identical event stream, timeline and
// makespan (verified inside Exact), and two replays serialize identically.
func TestExactReplaySimLoop(t *testing.T) {
	for _, schedText := range []string{"aid-dynamic,1,5", "aid-static", "dynamic,8", "static", "aid-auto,16,64"} {
		rec := roundTrip(t, recordSim(t, schedText, epSpec()))
		r1, err := Exact(rec)
		if err != nil {
			t.Fatalf("%s: Exact: %v", schedText, err)
		}
		if r1.MakespanNs != rec.MakespanNs {
			t.Fatalf("%s: makespan %d, recorded %d", schedText, r1.MakespanNs, rec.MakespanNs)
		}
		// The replayed record reproduces the recorded timeline too.
		got, want := r1.Record.Trace(), rec.Trace()
		for tid := 0; tid < rec.NThreads; tid++ {
			if !reflect.DeepEqual(got.Intervals(tid), want.Intervals(tid)) {
				t.Fatalf("%s: thread %d timeline diverged:\n%v\n%v", schedText, tid, got.Intervals(tid), want.Intervals(tid))
			}
		}
		r2, err := Exact(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, r1.Record), encode(t, r2.Record)) {
			t.Fatalf("%s: two exact replays serialized differently", schedText)
		}
	}
}

// v1Record is a version 1 sim record, stored timeline ("iv" lines) and
// all: two workers on Platform A running eight iterations under dynamic,3.
const v1Record = `{"t":"run","d":{"version":1,"engine":"sim","platform":{"name":"A (Odroid-XU4 big.LITTLE)","clusters":[{"Type":{"Name":"Cortex-A15","FreqGHz":2,"DutyCycle":1,"IPCScalar":1,"IPCMax":3.3,"MemGBps":1.6,"ActiveW":1.8,"IdleW":0.15},"NumCores":4,"LLCMB":2,"MissSlope":0.75,"SatGBps":1.7,"Package":0},{"Type":{"Name":"Cortex-A7","FreqGHz":1.5,"DutyCycle":1,"IPCScalar":0.7,"IPCMax":0.52,"MemGBps":1.45,"ActiveW":0.33,"IdleW":0.03},"NumCores":4,"LLCMB":0.5,"MissSlope":0.45,"SatGBps":1.7,"Package":0}],"overhead":{"PoolAccessNs":120,"ContentionNs":105,"LocalityPenaltyNs":160,"LocalityForeignNs":240,"LocalityRemoteNs":400,"ForkJoinNs":9000,"TimestampNs":30}},"nthreads":2,"binding":"BS","start_ns":0,"makespan_ns":12390}}
{"t":"loop","d":{"index":0,"name":"v1","ni":8,"scheduler":"dynamic","schedule":"dynamic,3","profile":{"ILP":0,"MemIntensity":0,"FootprintMB":0},"cost":{"kind":"uniform","base":1000}}}
{"t":"ev","d":{"seq":0,"time_ns":4500,"tid":0,"loop":0,"lo":0,"hi":3,"shard":0,"cost":3000,"exec_ns":1500,"pool":1}}
{"t":"ev","d":{"seq":1,"time_ns":4500,"tid":1,"loop":0,"lo":3,"hi":6,"shard":0,"cost":3000,"exec_ns":1500,"pool":1}}
{"t":"ev","d":{"seq":2,"time_ns":6385,"tid":0,"loop":0,"lo":6,"hi":8,"shard":0,"cost":2000,"exec_ns":1000,"pool":1}}
{"t":"ev","d":{"seq":3,"time_ns":6385,"tid":1,"loop":0,"lo":0,"hi":0,"shard":0,"pool":1,"retire":true}}
{"t":"ev","d":{"seq":4,"time_ns":7770,"tid":0,"loop":0,"lo":0,"hi":0,"shard":0,"pool":1,"retire":true}}
{"t":"iv","d":{"tid":0,"start_ns":0,"end_ns":4885,"state":1}}
{"t":"iv","d":{"tid":0,"start_ns":4885,"end_ns":6385,"state":0}}
{"t":"iv","d":{"tid":0,"start_ns":6385,"end_ns":6770,"state":1}}
{"t":"iv","d":{"tid":0,"start_ns":6770,"end_ns":7770,"state":0}}
{"t":"iv","d":{"tid":0,"start_ns":7770,"end_ns":12390,"state":1}}
{"t":"iv","d":{"tid":1,"start_ns":0,"end_ns":4885,"state":1}}
{"t":"iv","d":{"tid":1,"start_ns":4885,"end_ns":6385,"state":0}}
{"t":"iv","d":{"tid":1,"start_ns":6385,"end_ns":6610,"state":1}}
{"t":"iv","d":{"tid":1,"start_ns":6610,"end_ns":7890,"state":2}}
{"t":"iv","d":{"tid":1,"start_ns":7890,"end_ns":12390,"state":1}}
`

// TestExactReplayVersion1Record: a version 1 record still decodes, its
// stored timeline skipped, and replays exactly.
func TestExactReplayVersion1Record(t *testing.T) {
	rec, err := trace.DecodeJSONL(strings.NewReader(v1Record))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 1 || len(rec.Events) != 5 {
		t.Fatalf("decoded version %d with %d events, want version 1 with 5", rec.Version, len(rec.Events))
	}
	if _, err := Exact(rec); err != nil {
		t.Fatalf("Exact: %v", err)
	}
}

// TestExactReplaySimMultiLoop replays a recorded sim.RunLoops run: the
// scripted policy must reproduce each worker's loop-visit order, and the
// makespan must match exactly.
func TestExactReplaySimMultiLoop(t *testing.T) {
	pl := amp.PlatformA()
	aid, _ := rt.ParseSchedule("aid-dynamic,1,5")
	rec := trace.NewRecorder()
	cfg := sim.Config{
		Platform: pl,
		NThreads: pl.NumCores(),
		Factory:  aid.Factory(),
		Recorder: rec,
	}
	specs := []sim.LoopSpec{
		{Name: "a", NI: 4000, Profile: amp.Profile{ILP: 0.6}, Cost: sim.UniformCost{PerIter: 50000}, Weight: 2},
		{Name: "b", NI: 2000, Profile: amp.Profile{ILP: 0.2, MemIntensity: 0.4}, Cost: sim.LinearCost{Base: 20000, Slope: 30}},
		{Name: "c", NI: 1000, Profile: amp.Profile{MemIntensity: 0.7}, Cost: sim.UniformCost{PerIter: 90000}},
	}
	if _, err := sim.RunLoops(cfg, specs, nil, 0); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		rec.SetLoopSchedule(i, aid.Canonical())
	}
	record := roundTrip(t, rec.Record())
	r1, err := Exact(record)
	if err != nil {
		t.Fatalf("Exact multi-loop: %v", err)
	}
	if r1.MakespanNs != record.MakespanNs {
		t.Fatalf("makespan %d, recorded %d", r1.MakespanNs, record.MakespanNs)
	}
	r2, err := Exact(record)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, r1.Record), encode(t, r2.Record)) {
		t.Fatal("two exact multi-loop replays serialized differently")
	}
}

// TestExactReplayZeroTripLoop: a recorded zero-trip loop is all retire
// events and must replay cleanly.
func TestExactReplayZeroTripLoop(t *testing.T) {
	spec := sim.LoopSpec{Name: "empty", NI: 0, Cost: sim.UniformCost{PerIter: 1}}
	rec := roundTrip(t, recordSim(t, "dynamic,4", spec))
	if _, err := Exact(rec); err != nil {
		t.Fatalf("Exact on zero-trip record: %v", err)
	}
}

// TestExactDetectsCorruptRecord: dropping a grant or granting twice must
// fail coverage verification, not silently replay.
func TestExactDetectsCorruptRecord(t *testing.T) {
	rec := roundTrip(t, recordSim(t, "dynamic,8", epSpec()))
	// Drop the first real grant: a coverage hole.
	holed := roundTrip(t, rec)
	for i, ev := range holed.Events {
		if !ev.Retire {
			holed.Events = append(holed.Events[:i], holed.Events[i+1:]...)
			break
		}
	}
	if _, err := Exact(holed); err == nil {
		t.Error("Exact accepted a record with a coverage hole")
	}
	// What-if must reject it too: with a piecewise cost the hole would
	// silently replay as zero-cost iterations.
	if _, err := WhatIf(holed, WhatIfConfig{Schedule: "aid-static"}); err == nil {
		t.Error("WhatIf accepted a record with a coverage hole")
	}
	// Duplicate a grant: double coverage.
	doubled := roundTrip(t, rec)
	for _, ev := range doubled.Events {
		if !ev.Retire {
			doubled.Events = append(doubled.Events, ev)
			break
		}
	}
	if _, err := Exact(doubled); err == nil {
		t.Error("Exact accepted a record with a doubly granted chunk")
	}
}

// TestWhatIfSwapsScheduler runs the recorded workload under a different
// scheduler and checks the counterfactual is deterministic and complete.
func TestWhatIfSwapsScheduler(t *testing.T) {
	rec := roundTrip(t, recordSim(t, "dynamic,1", epSpec()))
	w1, err := WhatIf(rec, WhatIfConfig{Schedule: "aid-static"})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := WhatIf(rec, WhatIfConfig{Schedule: "aid-static"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, w1.Record), encode(t, w2.Record)) {
		t.Fatal("what-if replay is not deterministic")
	}
	if w1.Record.Loops[0].Schedule != "aid-static,1" {
		t.Errorf("what-if record carries schedule %q", w1.Record.Loops[0].Schedule)
	}
	if got := w1.Record.Loops[0].Scheduler; got != "aid-static" {
		t.Errorf("what-if ran %q, want aid-static", got)
	}
	var iters int64
	for _, n := range w1.Results[0].Iters {
		iters += n
	}
	if iters != rec.Loops[0].NI {
		t.Errorf("what-if executed %d iterations, want %d", iters, rec.Loops[0].NI)
	}
	// dynamic,1 pays a pool access per iteration; AID-static should cut
	// pool traffic by orders of magnitude on this loop.
	if w1.Results[0].PoolAccesses*10 >= 16384 {
		t.Errorf("aid-static what-if still performs %d pool accesses", w1.Results[0].PoolAccesses)
	}
}

// TestWhatIfKeepsRecordedSchedule: with no override, each loop re-runs
// under its recorded schedule — reproducing the original makespan for a
// sim-produced record, since the simulator is deterministic.
func TestWhatIfKeepsRecordedSchedule(t *testing.T) {
	rec := roundTrip(t, recordSim(t, "aid-dynamic,1,5", epSpec()))
	w, err := WhatIf(rec, WhatIfConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if w.MakespanNs != rec.MakespanNs {
		t.Errorf("keep-schedule what-if makespan %d, recorded %d", w.MakespanNs, rec.MakespanNs)
	}
}

// TestWhatIfFromRTRecord is the acceptance property for the real engine:
// what-if replay of an rt-recorded run under a swapped scheduler is
// deterministic across repeated invocations.
func TestWhatIfFromRTRecord(t *testing.T) {
	team, err := rt.NewTeam(rt.TeamConfig{NThreads: 4, Schedule: rt.Schedule{Kind: rt.KindDynamic, Chunk: 8}})
	if err != nil {
		t.Fatal(err)
	}
	rec, stats, err := team.RecordParallelFor("rt-loop", 4096, func(_ int, lo, hi int64) {
		runtime.Gosched()
	})
	if err != nil {
		t.Fatal(err)
	}
	record := roundTrip(t, rec)
	if record.Engine != "rt" {
		t.Fatalf("record engine %q", record.Engine)
	}
	// The record's derived timeline is the loop's captured one.
	tr := record.Trace()
	for tid := 0; tid < record.NThreads; tid++ {
		if !reflect.DeepEqual(tr.Intervals(tid), stats.Trace.Intervals(tid)) {
			t.Fatalf("thread %d: record timeline %v, loop stats %v", tid, tr.Intervals(tid), stats.Trace.Intervals(tid))
		}
	}
	// Exact replay: coverage and per-thread grant totals must verify.
	if _, err := Exact(record); err != nil {
		t.Fatalf("Exact on rt record: %v", err)
	}
	// What-if under a swapped scheduler, twice: byte-identical.
	w1, err := WhatIf(record, WhatIfConfig{Schedule: "aid-hybrid,80"})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := WhatIf(record, WhatIfConfig{Schedule: "aid-hybrid,80"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, w1.Record), encode(t, w2.Record)) {
		t.Fatal("rt what-if replay is not deterministic")
	}
	var iters int64
	for _, n := range w1.Results[0].Iters {
		iters += n
	}
	if iters != 4096 {
		t.Errorf("what-if executed %d iterations, want 4096", iters)
	}
}

// TestDiffIdenticalRunsIsClean is the acceptance property for diff: zero
// regressions for identical runs.
func TestDiffIdenticalRunsIsClean(t *testing.T) {
	rec := roundTrip(t, recordSim(t, "aid-dynamic,1,5", epSpec()))
	rep := Diff(rec, roundTrip(t, rec), 2.0)
	if rep.Regressions != 0 {
		t.Fatalf("identical runs diffed with %d regressions:\n%s", rep.Regressions, rep)
	}
	for _, m := range rep.Metrics {
		if m.DeltaPct != 0 {
			t.Errorf("metric %s has nonzero delta %v for identical runs", m.Name, m.DeltaPct)
		}
	}
}

// TestDiffFlagsRegression: a candidate with a worse makespan and more pool
// traffic must be flagged.
func TestDiffFlagsRegression(t *testing.T) {
	base := roundTrip(t, recordSim(t, "aid-static", epSpec()))
	// dynamic,1 on this loop pays a pool access per iteration and a far
	// larger runtime overhead: a genuine scheduling regression.
	cand, err := WhatIf(base, WhatIfConfig{Schedule: "dynamic,1"})
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(base, cand.Record, 2.0)
	if rep.Regressions == 0 {
		t.Fatalf("regression not flagged:\n%s", rep)
	}
	var poolFlagged bool
	for _, m := range rep.Metrics {
		if m.Name == "pool_accesses" && m.Regression {
			poolFlagged = true
		}
	}
	if !poolFlagged {
		t.Errorf("pool_accesses not flagged:\n%s", rep)
	}
	// The report renders with a verdict line.
	if s := rep.String(); !bytes.Contains([]byte(s), []byte("REGRESSION")) {
		t.Errorf("report lacks regression markers:\n%s", s)
	}
}

// TestDiffImprovementIsNotRegression: a faster candidate must not be
// flagged (cost metrics regress one-sided).
func TestDiffImprovementIsNotRegression(t *testing.T) {
	base := roundTrip(t, recordSim(t, "dynamic,1", epSpec()))
	cand, err := WhatIf(base, WhatIfConfig{Schedule: "aid-static"})
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(base, cand.Record, 2.0)
	for _, m := range rep.Metrics {
		switch m.Name {
		case "makespan_ns", "pool_accesses", "chunks", "sched_ns_total":
			if m.Regression && m.B < m.A {
				t.Errorf("improvement flagged as regression: %+v", m)
			}
		}
	}
}

// TestPiecewiseCost checks the reconstructed cost model: exact segment
// queries return stored totals, partial queries interpolate.
func TestPiecewiseCost(t *testing.T) {
	rec := &trace.Record{
		Version: trace.RecordVersion, Engine: "rt",
		Platform: trace.PlatformRecordOf(amp.PlatformA()),
		NThreads: 2, Binding: "BS",
		Loops: []trace.LoopRecord{{Index: 0, Name: "l", NI: 10}},
		Events: []trace.ChunkEvent{
			{TimeNs: 1, Tid: 0, Loop: 0, Lo: 0, Hi: 4, Cost: 400},
			{TimeNs: 2, Tid: 1, Loop: 0, Lo: 4, Hi: 10, Cost: 300},
		},
	}
	c, err := costFromEvents(rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RangeUnits(0, 4); got != 400 {
		t.Errorf("exact segment = %v, want 400", got)
	}
	if got := c.RangeUnits(4, 10); got != 300 {
		t.Errorf("exact segment = %v, want 300", got)
	}
	if got := c.RangeUnits(0, 10); got != 700 {
		t.Errorf("full span = %v, want 700", got)
	}
	if got := c.RangeUnits(2, 4); got != 200 {
		t.Errorf("half segment = %v, want 200", got)
	}
	if got := c.RangeUnits(2, 7); got != 200+150 {
		t.Errorf("straddling span = %v, want 350", got)
	}
	if got := c.Units(0); got != 100 {
		t.Errorf("Units(0) = %v, want 100", got)
	}
	if got := c.Units(5); got != 50 {
		t.Errorf("Units(5) = %v, want 50", got)
	}
}

// TestImbalanceOneDefinition: on a fixture where 100·(max−min)/max (80%)
// and 100·(1−avg/max) (40%) of the busy times disagree, the timeline, the
// flight-recorder analysis and the run diff report the same imbalance.
func TestImbalanceOneDefinition(t *testing.T) {
	rec := &trace.Record{Version: trace.RecordVersion, Engine: "sim",
		Platform: trace.PlatformRecordOf(amp.PlatformA()), NThreads: 3, Binding: "BS", MakespanNs: 1200,
		Loops: []trace.LoopRecord{{Name: "l", NI: 30, Scheduler: "static"}},
		Events: []trace.ChunkEvent{
			{Seq: 0, Tid: 0, Lo: 0, Hi: 10, SchedNs: 10, ExecNs: 1000},
			{Seq: 1, Tid: 1, Lo: 10, Hi: 20, SchedNs: 10, ExecNs: 600},
			{Seq: 2, Tid: 2, Lo: 20, Hi: 30, SchedNs: 10, ExecNs: 200},
		}}
	const want = 80.0
	if got := rec.Trace().ImbalancePct(); got != want {
		t.Errorf("Trace.ImbalancePct = %v, want %v", got, want)
	}
	a, err := obs.Analyze(rec)
	if err != nil {
		t.Fatal(err)
	}
	if a.ImbalancePct != want {
		t.Errorf("obs.Analyze imbalance = %v, want %v", a.ImbalancePct, want)
	}
	for _, m := range Diff(rec, rec, 1).Metrics {
		if m.Name == "imbalance_pct" {
			if m.A != want || m.B != want {
				t.Errorf("Diff imbalance = %v/%v, want %v", m.A, m.B, want)
			}
			return
		}
	}
	t.Error("Diff reports no imbalance_pct")
}
