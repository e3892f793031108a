package obs

import (
	"fmt"
	"io"

	"repro/internal/trace"
)

// Analysis is the offline digest of one run record (trace.Record): the
// flight-recorder view aidstat prints. All times are on the producing
// engine's clock (virtual ns for sim records, monotonic wall ns for rt).
type Analysis struct {
	// Engine and Policy echo the record's provenance.
	Engine, Policy string
	// SpanNs is the analysis window: the recorded makespan when present,
	// otherwise the extent of the event stream.
	SpanNs int64
	// StartNs is the window's origin on the record's clock.
	StartNs int64
	// Threads is the per-thread usage breakdown, indexed by tid.
	Threads []ThreadUsage
	// ImbalancePct is the load-imbalance metric (trace.Imbalance) over the
	// threads' busy times: 100·(max−min)/max.
	ImbalancePct float64
	// TierCounts buckets every grant by provenance tier (Tier-indexed).
	TierCounts [3]int64
	// SharedGrants counts grants served from central (shared) pools —
	// provenance-free, charged to TierHome in TierCounts.
	SharedGrants int64
	// StealMatrix[thief][origin] counts chunks a thread homed on cluster
	// `thief` claimed from cluster `origin`'s shard (shared-pool grants are
	// excluded; the diagonal holds home-shard grants).
	StealMatrix [][]int64
	// Loops summarizes each recorded loop.
	Loops []LoopSummary
}

// ThreadUsage is one worker's share of the recorded run.
type ThreadUsage struct {
	Tid int
	// Type is the thread's home cluster (the Shard of its grants).
	Type int
	// BusyNs sums the thread's chunk execution times; UtilPct is BusyNs
	// over the analysis span.
	BusyNs  int64
	UtilPct float64
	// Chunks and Iters count the thread's grants and their iterations.
	Chunks, Iters int64
	// PoolAccesses sums the runtime-cost metadata of its scheduler calls.
	PoolAccesses int64
}

// LoopSummary condenses one loop's recorded life.
type LoopSummary struct {
	Name      string
	Scheduler string
	NI        int64
	// Iters counts recorded granted iterations (< NI when the producer
	// compacted or trimmed the event stream).
	Iters  int64
	Chunks int64
	// StartNs/EndNs bound the loop's recorded events.
	StartNs, EndNs int64
	// PhaseCounts tallies the scheduler's transitions by kind, and
	// PhaseKinds lists the kinds in first-occurrence order.
	PhaseCounts map[string]int
	PhaseKinds  []string
	// SFFirst and SFLast are the loop's first and last published SF tables
	// (nil when the method estimates nothing) — the SF trajectory's
	// endpoints; SFSamples counts the points between them.
	SFFirst, SFLast []float64
	SFSamples       int
}

// Analyze digests a run record. The record must be valid (decoded records
// are); the platform's cluster-distance matrix drives the tier bucketing.
func Analyze(rec *trace.Record) (*Analysis, error) {
	pl, err := rec.Platform.Platform()
	if err != nil {
		return nil, fmt.Errorf("obs: rebuilding recorded platform: %w", err)
	}
	dist := pl.TypeDist()
	ntypes := len(pl.Clusters)
	a := &Analysis{
		Engine:      rec.Engine,
		Policy:      rec.Policy,
		StartNs:     rec.StartNs,
		SpanNs:      rec.MakespanNs,
		Threads:     make([]ThreadUsage, rec.NThreads),
		StealMatrix: make([][]int64, ntypes),
		Loops:       make([]LoopSummary, len(rec.Loops)),
	}
	for t := range a.StealMatrix {
		a.StealMatrix[t] = make([]int64, ntypes)
	}
	for tid := range a.Threads {
		a.Threads[tid].Tid = tid
	}
	for i, l := range rec.Loops {
		a.Loops[i] = LoopSummary{Name: l.Name, Scheduler: l.Scheduler, NI: l.NI,
			StartNs: -1, PhaseCounts: make(map[string]int)}
	}
	var maxEnd int64
	for _, ev := range rec.Events {
		th := &a.Threads[ev.Tid]
		th.Type = ev.Shard
		th.PoolAccesses += int64(ev.PoolAccesses)
		ls := &a.Loops[ev.Loop]
		if ls.StartNs < 0 || ev.TimeNs < ls.StartNs {
			ls.StartNs = ev.TimeNs
		}
		if end := ev.TimeNs + ev.ExecNs; end > ls.EndNs {
			ls.EndNs = end
		}
		if end := ev.TimeNs + ev.ExecNs; end > maxEnd {
			maxEnd = end
		}
		if ev.Retire {
			continue
		}
		th.BusyNs += ev.ExecNs
		th.Chunks++
		th.Iters += ev.Hi - ev.Lo
		ls.Chunks++
		ls.Iters += ev.Hi - ev.Lo
		a.TierCounts[Tier(dist, ev.Shard, ev.Origin)]++
		if ev.Origin < 0 {
			a.SharedGrants++
		} else if ev.Shard < ntypes && ev.Origin < ntypes {
			a.StealMatrix[ev.Shard][ev.Origin]++
		}
	}
	if a.SpanNs <= 0 && maxEnd > a.StartNs {
		a.SpanNs = maxEnd - a.StartNs
	}
	busy := make([]int64, len(a.Threads))
	for tid := range a.Threads {
		th := &a.Threads[tid]
		if a.SpanNs > 0 {
			th.UtilPct = 100 * float64(th.BusyNs) / float64(a.SpanNs)
		}
		busy[tid] = th.BusyNs
	}
	a.ImbalancePct = trace.Imbalance(busy)
	for _, p := range rec.Phases {
		ls := &a.Loops[p.Loop]
		if _, seen := ls.PhaseCounts[p.Kind]; !seen {
			ls.PhaseKinds = append(ls.PhaseKinds, p.Kind)
		}
		ls.PhaseCounts[p.Kind]++
	}
	for _, s := range rec.SFSamples {
		ls := &a.Loops[s.Loop]
		if ls.SFFirst == nil {
			ls.SFFirst = s.SF
		}
		ls.SFLast = s.SF
		ls.SFSamples++
	}
	return a, nil
}

// ganttWidth is the character width of the per-thread activity strips.
const ganttWidth = 60

// WriteReport renders the analysis as the aidstat text report: run
// provenance, a per-thread utilization table with a Gantt strip (one letter
// per loop, '.' for idle), the imbalance figure, the steal matrix by tier,
// and per-loop phase/SF summaries. The strips are rebuilt from the
// record's event stream, so the report needs the record the analysis came
// from.
func WriteReport(w io.Writer, rec *trace.Record, a *Analysis) error {
	e := &errWriter{w: w}
	e.printf("engine=%s nthreads=%d binding=%s", a.Engine, len(a.Threads), rec.Binding)
	if a.Policy != "" {
		e.printf(" policy=%s", a.Policy)
	}
	e.printf(" span=%.3fms\n\n", float64(a.SpanNs)/1e6)

	strips := ganttStrips(rec, a)
	e.printf("%-4s %-4s %12s %7s %8s %9s  %s\n", "tid", "type", "busy-ms", "util%", "chunks", "iters", "activity")
	for _, th := range a.Threads {
		e.printf("t%-3d %-4d %12.3f %7.1f %8d %9d  %s\n",
			th.Tid, th.Type, float64(th.BusyNs)/1e6, th.UtilPct, th.Chunks, th.Iters, strips[th.Tid])
	}
	e.printf("\nimbalance: %.1f%% ((max - min)/max busy)\n", a.ImbalancePct)

	e.printf("\nsteals by tier: home=%d same-pkg=%d cross-pkg=%d (shared-pool grants: %d)\n",
		a.TierCounts[TierHome], a.TierCounts[TierSamePkg], a.TierCounts[TierCross], a.SharedGrants)
	if len(a.StealMatrix) > 1 {
		e.printf("steal matrix (rows: thief home type, cols: origin shard):\n")
		e.printf("%8s", "")
		for t := range a.StealMatrix {
			e.printf(" %8s", fmt.Sprintf("type%d", t))
		}
		e.printf("\n")
		for t, row := range a.StealMatrix {
			e.printf("%8s", fmt.Sprintf("type%d", t))
			for _, v := range row {
				e.printf(" %8d", v)
			}
			e.printf("\n")
		}
	}

	for _, ls := range a.Loops {
		e.printf("\nloop %q (%s): %d/%d iters in %d chunks, [%.3f, %.3f]ms\n",
			ls.Name, ls.Scheduler, ls.Iters, ls.NI, ls.Chunks,
			float64(ls.StartNs-a.StartNs)/1e6, float64(ls.EndNs-a.StartNs)/1e6)
		if len(ls.PhaseKinds) > 0 {
			e.printf("  phases:")
			for _, k := range ls.PhaseKinds {
				e.printf(" %s×%d", k, ls.PhaseCounts[k])
			}
			e.printf("\n")
		}
		if ls.SFFirst != nil {
			e.printf("  SF: %v", ls.SFFirst)
			if ls.SFSamples > 1 {
				e.printf(" → %v (%d samples)", ls.SFLast, ls.SFSamples)
			}
			e.printf("\n")
		}
	}
	return e.err
}

// ganttStrips renders one ganttWidth-character activity strip per thread:
// the loop's letter ('A' + loop index, wrapping through the alphabet) where
// the thread was executing a chunk, '.' where it was not.
func ganttStrips(rec *trace.Record, a *Analysis) []string {
	strips := make([][]byte, len(a.Threads))
	for tid := range strips {
		strips[tid] = make([]byte, ganttWidth)
		for i := range strips[tid] {
			strips[tid][i] = '.'
		}
	}
	if a.SpanNs <= 0 {
		out := make([]string, len(strips))
		for tid := range strips {
			out[tid] = string(strips[tid])
		}
		return out
	}
	scale := float64(ganttWidth) / float64(a.SpanNs)
	for _, ev := range rec.Events {
		if ev.Retire || ev.Tid >= len(strips) {
			continue
		}
		lo := int(float64(ev.TimeNs-a.StartNs) * scale)
		hi := int(float64(ev.TimeNs+ev.ExecNs-a.StartNs) * scale)
		if lo < 0 {
			lo = 0
		}
		if hi >= ganttWidth {
			hi = ganttWidth - 1
		}
		letter := byte('A' + ev.Loop%26)
		for i := lo; i <= hi && i < ganttWidth; i++ {
			strips[ev.Tid][i] = letter
		}
	}
	out := make([]string, len(strips))
	for tid := range strips {
		out[tid] = string(strips[tid])
	}
	return out
}
