// Package trace records runs as chunk-event streams (Record) and derives
// from them the per-thread execution timelines in the style of the Paraver
// traces the paper uses to visualize load imbalance (Figs. 1 and 4). Each
// worker thread's timeline is a sequence of intervals in one of three
// states — Running (useful iteration work), Sched (runtime scheduling and
// fork/join overhead), and Sync (waiting at the implicit barrier) — built
// from the events by FromEvents, and the package renders them as an ASCII
// Gantt chart plus utilization metrics.
package trace

import (
	"fmt"
	"strings"
)

// State classifies what a thread was doing during an interval, mirroring the
// three categories in the paper's trace legends.
type State int

const (
	// Running means the thread executed loop iterations or serial work.
	Running State = iota
	// Sched means the thread was inside the runtime system (pool accesses,
	// sampling bookkeeping, fork/join).
	Sched
	// Sync means the thread waited at a barrier.
	Sync
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Running:
		return "Running"
	case Sched:
		return "Sched"
	case Sync:
		return "Sync"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// glyph is the ASCII rendering of each state.
func (s State) glyph() byte {
	switch s {
	case Running:
		return '#'
	case Sched:
		return '+'
	default:
		return '.'
	}
}

// Interval is a half-open time span [Start, End) in one state.
type Interval struct {
	Start, End int64
	State      State
}

// Trace accumulates intervals for a fixed number of threads. The zero value
// is not usable; call New or FromEvents. Trace is not safe for concurrent
// use.
type Trace struct {
	perThread [][]Interval
}

// New returns a trace for nThreads threads.
func New(nThreads int) *Trace {
	if nThreads <= 0 {
		panic(fmt.Sprintf("trace: non-positive thread count %d", nThreads))
	}
	return &Trace{perThread: make([][]Interval, nThreads)}
}

// NThreads returns the number of threads in the trace.
func (t *Trace) NThreads() int { return len(t.perThread) }

// Add appends an interval for a thread. Zero-length intervals are dropped;
// an interval that continues the previous one in the same state is merged.
// Intervals must be appended in non-decreasing time order per thread. An
// out-of-range tid panics with a descriptive message (it is a programming
// error in the recording engine, not a recoverable condition).
func (t *Trace) Add(tid int, start, end int64, s State) {
	if tid < 0 || tid >= len(t.perThread) {
		panic(fmt.Sprintf("trace: Add tid %d out of range [0,%d)", tid, len(t.perThread)))
	}
	if end <= start {
		return
	}
	ivs := t.perThread[tid]
	if n := len(ivs); n > 0 {
		if last := &ivs[n-1]; last.End > start {
			panic(fmt.Sprintf("trace: thread %d interval [%d,%d) overlaps previous end %d", tid, start, end, last.End))
		} else if last.End == start && last.State == s {
			last.End = end
			return
		}
	}
	t.perThread[tid] = append(ivs, Interval{Start: start, End: end, State: s})
}

// Intervals returns thread tid's recorded intervals (not a copy; callers
// must not modify it).
func (t *Trace) Intervals(tid int) []Interval { return t.perThread[tid] }

// EndTime returns the latest interval end across all threads.
func (t *Trace) EndTime() int64 {
	var end int64
	for _, ivs := range t.perThread {
		if n := len(ivs); n > 0 && ivs[n-1].End > end {
			end = ivs[n-1].End
		}
	}
	return end
}

// TimeIn returns the total time thread tid spent in state s.
func (t *Trace) TimeIn(tid int, s State) int64 {
	var sum int64
	for _, iv := range t.perThread[tid] {
		if iv.State == s {
			sum += iv.End - iv.Start
		}
	}
	return sum
}

// Utilization returns the fraction of the full trace duration that thread
// tid spent Running.
func (t *Trace) Utilization(tid int) float64 {
	end := t.EndTime()
	if end == 0 {
		return 0
	}
	return float64(t.TimeIn(tid, Running)) / float64(end)
}

// ImbalancePct is Imbalance over the threads' Running times.
func (t *Trace) ImbalancePct() float64 {
	run := make([]int64, len(t.perThread))
	for tid := range run {
		run[tid] = t.TimeIn(tid, Running)
	}
	return Imbalance(run)
}

// Imbalance quantifies load imbalance from per-thread Running times as the
// share of the busiest thread's time that the least busy one spends not
// Running: 100·(maxRun − minRun)/maxRun. A perfectly balanced run scores 0,
// as does a run with no Running time.
func Imbalance(runNs []int64) float64 {
	var minRun, maxRun int64 = -1, 0
	for _, r := range runNs {
		if minRun == -1 || r < minRun {
			minRun = r
		}
		maxRun = max(maxRun, r)
	}
	if maxRun == 0 {
		return 0
	}
	return 100 * float64(maxRun-minRun) / float64(maxRun)
}

// FromEvents derives the per-thread timeline of a chunk-event stream in
// engine order. Each grant is Sched for its SchedNs and then Running for its
// ExecNs; each retirement is Sched up to the worker's finish. With barrier
// set, the stream is one loop that every worker joins at startNs and leaves
// through an implicit barrier released at endNs: each thread also gets a
// Sched lead-in from startNs to its first event, Sync from its finish to the
// last finish, and a Sched join tail from there to endNs.
//
// A span that begins before its thread's previous interval ends (a stream
// coarsened by CompactEvents per loop, or a malformed decoded record) is
// clipped to begin there, so derivation never fails on a valid record.
func FromEvents(nthreads int, evs []ChunkEvent, startNs, endNs int64, barrier bool) *Trace {
	t := New(nthreads)
	add := func(tid int, start, end int64, s State) {
		if ivs := t.perThread[tid]; len(ivs) > 0 {
			start = max(start, ivs[len(ivs)-1].End)
		}
		t.Add(tid, start, end, s)
	}
	joined := make([]bool, nthreads)
	for _, ev := range evs {
		if barrier && !joined[ev.Tid] {
			joined[ev.Tid] = true
			add(ev.Tid, startNs, ev.TimeNs, Sched)
		}
		schedEnd := ev.TimeNs + ev.SchedNs
		add(ev.Tid, ev.TimeNs, schedEnd, Sched)
		if !ev.Retire {
			add(ev.Tid, schedEnd, schedEnd+ev.ExecNs, Running)
		}
	}
	if barrier {
		lastFinish := max(startNs, t.EndTime())
		for tid, ivs := range t.perThread {
			finish := startNs
			if len(ivs) > 0 {
				finish = ivs[len(ivs)-1].End
			}
			add(tid, finish, lastFinish, Sync)
			add(tid, lastFinish, endNs, Sched)
		}
	}
	return t
}

// SchedOverheadPct returns the share of the aggregate thread-time spent in
// the runtime system (Sched), in percent.
func (t *Trace) SchedOverheadPct() float64 {
	var sched, total int64
	for tid := range t.perThread {
		for _, iv := range t.perThread[tid] {
			d := iv.End - iv.Start
			total += d
			if iv.State == Sched {
				sched += d
			}
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(sched) / float64(total)
}

// Render draws the trace as an ASCII Gantt chart of the given width
// (columns of timeline, excluding the row label). Each row is one thread;
// '#' marks Running, '+' Sched, '.' Sync, ' ' no data. The dominant state
// within each column wins.
func (t *Trace) Render(width int) string {
	if width <= 0 {
		width = 80
	}
	end := t.EndTime()
	var b strings.Builder
	fmt.Fprintf(&b, "time 0 .. %d ns   legend: #=Running +=Sched .=Sync\n", end)
	if end == 0 {
		return b.String()
	}
	colDur := float64(end) / float64(width)
	for tid := range t.perThread {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		// Accumulate time per state per column, then pick the dominant.
		var occupancy [3][]int64
		for s := range occupancy {
			occupancy[s] = make([]int64, width)
		}
		for _, iv := range t.perThread[tid] {
			c0 := int(float64(iv.Start) / colDur)
			c1 := int(float64(iv.End) / colDur)
			if c1 >= width {
				c1 = width - 1
			}
			for c := c0; c <= c1; c++ {
				colStart := int64(float64(c) * colDur)
				colEnd := int64(float64(c+1) * colDur)
				lo, hi := iv.Start, iv.End
				if lo < colStart {
					lo = colStart
				}
				if hi > colEnd {
					hi = colEnd
				}
				if hi > lo {
					occupancy[iv.State][c] += hi - lo
				}
			}
		}
		for c := 0; c < width; c++ {
			best := int64(0)
			for s := 0; s < 3; s++ {
				if occupancy[s][c] > best {
					best = occupancy[s][c]
					row[c] = State(s).glyph()
				}
			}
		}
		fmt.Fprintf(&b, "T%-2d |%s|\n", tid+1, row)
	}
	fmt.Fprintf(&b, "imbalance: %.1f%%   sched overhead: %.2f%%\n",
		t.ImbalancePct(), t.SchedOverheadPct())
	return b.String()
}
