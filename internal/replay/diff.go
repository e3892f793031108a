package replay

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Metric is one compared quantity of a run diff.
type Metric struct {
	// Name identifies the quantity (e.g. "makespan_ns", "sf[ep-main][0]").
	Name string
	// A and B are the baseline's and candidate's values.
	A, B float64
	// DeltaPct is the candidate's relative change in percent (positive =
	// larger). NaN when the baseline is zero and the candidate is not.
	DeltaPct float64
	// Regression marks a change beyond the report's tolerance in the
	// harmful direction (larger for cost metrics, either way for SF drift).
	Regression bool
}

// Report is the outcome of diffing two runs.
type Report struct {
	// TolerancePct is the relative change (percent) beyond which a metric
	// counts as a regression.
	TolerancePct float64
	// Metrics lists every compared quantity, cost metrics first.
	Metrics []Metric
	// Regressions counts the flagged metrics.
	Regressions int
}

// summary is the per-run digest Diff compares. Every field derives from
// the record alone, so recorded and replayed runs diff uniformly.
type summary struct {
	makespan  float64
	pool      float64
	chunks    float64
	runNs     float64 // summed over threads, from the derived timeline
	schedNs   float64
	syncNs    float64
	imbalance float64
	finalSF   map[string][]float64
	sfSamples map[string]int
}

func summarize(rec *trace.Record) *summary {
	s := &summary{
		makespan:  float64(rec.MakespanNs),
		finalSF:   map[string][]float64{},
		sfSamples: map[string]int{},
	}
	for _, ev := range rec.Events {
		s.pool += float64(ev.PoolAccesses)
		if !ev.Retire {
			s.chunks++
		}
	}
	if tr := rec.Trace(); tr != nil {
		for tid := 0; tid < tr.NThreads(); tid++ {
			s.runNs += float64(tr.TimeIn(tid, trace.Running))
			s.schedNs += float64(tr.TimeIn(tid, trace.Sched))
			s.syncNs += float64(tr.TimeIn(tid, trace.Sync))
		}
		s.imbalance = tr.ImbalancePct()
	}
	for _, sf := range rec.SFSamples {
		name := loopName(rec, sf.Loop)
		s.finalSF[name] = sf.SF // samples are chronological; last wins
		s.sfSamples[name]++
	}
	return s
}

func loopName(rec *trace.Record, li int) string {
	if li >= 0 && li < len(rec.Loops) {
		return rec.Loops[li].Name
	}
	return fmt.Sprintf("loop-%d", li)
}

// Diff compares two runs — a baseline and a candidate — into a regression
// report. Cost metrics (makespan, pool traffic, chunk count, aggregate
// Sched/Sync time, imbalance) regress when the candidate exceeds the
// baseline by more than tolPct percent; per-loop final SF estimates regress
// on drift beyond tolPct in either direction (a shifted estimate signals a
// changed sampling pipeline even when the makespan survives). Two identical
// runs — e.g. two exact replays of one record — always produce zero
// regressions.
func Diff(a, b *trace.Record, tolPct float64) *Report {
	sa, sb := summarize(a), summarize(b)
	rep := &Report{TolerancePct: tolPct}

	costMetric := func(name string, va, vb float64) {
		m := Metric{Name: name, A: va, B: vb, DeltaPct: deltaPct(va, vb)}
		m.Regression = vb > va && exceeds(m.DeltaPct, tolPct)
		rep.Metrics = append(rep.Metrics, m)
	}
	costMetric("makespan_ns", sa.makespan, sb.makespan)
	costMetric("pool_accesses", sa.pool, sb.pool)
	costMetric("chunks", sa.chunks, sb.chunks)
	costMetric("running_ns_total", sa.runNs, sb.runNs)
	costMetric("sched_ns_total", sa.schedNs, sb.schedNs)
	// Sync time is informational only: where the idle time sits is already
	// judged by makespan and imbalance — a schedule can lengthen the
	// barrier wait in absolute terms while finishing sooner, which is an
	// improvement, not a regression.
	rep.Metrics = append(rep.Metrics, Metric{Name: "sync_ns_total", A: sa.syncNs, B: sb.syncNs,
		DeltaPct: deltaPct(sa.syncNs, sb.syncNs)})
	// Imbalance is already a percentage; compare in absolute points.
	ia, ib := sa.imbalance, sb.imbalance
	im := Metric{Name: "imbalance_pct", A: ia, B: ib, DeltaPct: ib - ia}
	im.Regression = ib-ia > tolPct
	rep.Metrics = append(rep.Metrics, im)

	// SF trajectory: final estimate per loop (per core type) plus sample
	// count. Only loops present in both runs are comparable; names are
	// sorted so the report is reproducible (map order is not).
	names := make([]string, 0, len(sa.finalSF))
	for name := range sa.finalSF {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sfA := sa.finalSF[name]
		sfB, ok := sb.finalSF[name]
		if !ok {
			continue
		}
		for t := 0; t < len(sfA) && t < len(sfB); t++ {
			m := Metric{Name: fmt.Sprintf("sf[%s][%d]", name, t), A: sfA[t], B: sfB[t],
				DeltaPct: deltaPct(sfA[t], sfB[t])}
			m.Regression = exceeds(m.DeltaPct, tolPct)
			rep.Metrics = append(rep.Metrics, m)
		}
		rep.Metrics = append(rep.Metrics, Metric{Name: fmt.Sprintf("sf_samples[%s]", name),
			A: float64(sa.sfSamples[name]), B: float64(sb.sfSamples[name]),
			DeltaPct: deltaPct(float64(sa.sfSamples[name]), float64(sb.sfSamples[name]))})
	}
	for _, m := range rep.Metrics {
		if m.Regression {
			rep.Regressions++
		}
	}
	return rep
}

func deltaPct(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.NaN()
	}
	return 100 * (b - a) / a
}

// exceeds reports whether a relative delta is beyond tolerance in
// magnitude; a NaN delta (zero baseline, non-zero candidate) always counts.
func exceeds(deltaPct, tolPct float64) bool {
	return math.IsNaN(deltaPct) || math.Abs(deltaPct) > tolPct
}

// String renders the report as an aligned table plus a verdict line.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %16s %16s %10s\n", "metric", "baseline", "candidate", "delta")
	for _, m := range r.Metrics {
		flag := ""
		if m.Regression {
			flag = "  << REGRESSION"
		}
		delta := fmt.Sprintf("%+.2f%%", m.DeltaPct)
		if math.IsNaN(m.DeltaPct) {
			delta = "new"
		}
		fmt.Fprintf(&b, "%-24s %16.6g %16.6g %10s%s\n", m.Name, m.A, m.B, delta, flag)
	}
	if r.Regressions == 0 {
		fmt.Fprintf(&b, "no regressions (tolerance %.1f%%)\n", r.TolerancePct)
	} else {
		fmt.Fprintf(&b, "%d regression(s) beyond %.1f%% tolerance\n", r.Regressions, r.TolerancePct)
	}
	return b.String()
}
