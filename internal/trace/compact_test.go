package trace

import (
	"reflect"
	"testing"
)

// grant builds a grant event whose scheduling window scales with its pool
// accesses, so merged windows must sum like the accesses do.
func grant(seq, t int64, tid, loop int, lo, hi, execNs int64, pool int) ChunkEvent {
	return ChunkEvent{Seq: seq, TimeNs: t, Tid: tid, Loop: loop, Lo: lo, Hi: hi,
		SchedNs: 7 * int64(pool), ExecNs: execNs, Cost: float64(execNs), PoolAccesses: pool}
}

func retire(seq, t int64, tid, loop int) ChunkEvent {
	return ChunkEvent{Seq: seq, TimeNs: t, Tid: tid, Loop: loop, Retire: true, PoolAccesses: 1}
}

// TestCompactMergesAdjacentSameThread: contiguous grants of one worker
// collapse even when another worker's events interleave, and the merged
// event sums the additive fields while keeping the first grant's stamp.
func TestCompactMergesAdjacentSameThread(t *testing.T) {
	evs := []ChunkEvent{
		grant(0, 100, 0, 0, 0, 4, 50, 1),
		grant(1, 110, 1, 0, 100, 104, 60, 1), // other thread interleaves
		grant(2, 160, 0, 0, 4, 8, 55, 1),     // contiguous with seq 0
		grant(3, 170, 1, 0, 104, 108, 65, 1), // contiguous with seq 1
		grant(4, 220, 0, 0, 8, 12, 52, 1),    // extends the merged run again
	}
	got := CompactEvents(evs)
	want := []ChunkEvent{
		grant(0, 100, 0, 0, 0, 12, 157, 3),
		grant(1, 110, 1, 0, 100, 108, 125, 2),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted = %+v\nwant %+v", got, want)
	}
}

// TestCompactRespectsBoundaries: non-contiguous ranges, different loops and
// retirements all break a merge run.
func TestCompactRespectsBoundaries(t *testing.T) {
	evs := []ChunkEvent{
		grant(0, 100, 0, 0, 0, 4, 50, 1),
		grant(1, 150, 0, 0, 8, 12, 50, 1),  // gap: a steal landed in between
		grant(2, 200, 0, 1, 12, 16, 50, 1), // different loop
		retire(3, 250, 0, 1),
		grant(4, 300, 0, 1, 16, 20, 50, 1), // after a retire: no merge
	}
	got := CompactEvents(evs)
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("boundary-separated events were merged: %+v", got)
	}
	// Totals must be preserved by compaction whatever merges happen.
	sum := func(evs []ChunkEvent) (iters, sched int64, pool int) {
		for _, ev := range evs {
			iters += ev.Hi - ev.Lo
			sched += ev.SchedNs
			pool += ev.PoolAccesses
		}
		return
	}
	wantIters, wantSched, wantPool := sum(evs)
	gotIters, gotSched, gotPool := sum(got)
	if gotIters != wantIters || gotSched != wantSched || gotPool != wantPool {
		t.Fatalf("compaction changed totals: iters %d->%d sched %d->%d pool %d->%d",
			wantIters, gotIters, wantSched, gotSched, wantPool, gotPool)
	}
}

func TestCompactEmpty(t *testing.T) {
	if got := CompactEvents(nil); got != nil {
		t.Fatalf("CompactEvents(nil) = %v", got)
	}
}

// TestTrimToBudget pins head/tail retention: first head events, last
// budget-head events, middle dropped.
func TestTrimToBudget(t *testing.T) {
	evs := make([]ChunkEvent, 10)
	for i := range evs {
		evs[i] = grant(int64(i), int64(100*i), 0, 0, int64(i), int64(i+1), 1, 1)
	}
	got := TrimToBudget(evs, 4, 1)
	if len(got) != 4 {
		t.Fatalf("trimmed to %d events, want 4", len(got))
	}
	wantSeqs := []int64{0, 7, 8, 9}
	for i, ev := range got {
		if ev.Seq != wantSeqs[i] {
			t.Fatalf("kept seqs %v, want %v", []int64{got[0].Seq, got[1].Seq, got[2].Seq, got[3].Seq}, wantSeqs)
		}
	}
	// Under budget: untouched (same backing array, no copy).
	if got := TrimToBudget(evs, 20, 5); len(got) != len(evs) {
		t.Fatalf("under-budget trim dropped events: %d of %d", len(got), len(evs))
	}
	// Unbounded budget.
	if got := TrimToBudget(evs, 0, 5); len(got) != len(evs) {
		t.Fatalf("budget 0 must mean unbounded, got %d events", len(got))
	}
	// Head clamping.
	if got := TrimToBudget(evs, 3, 99); len(got) != 3 || got[0].Seq != 0 || got[2].Seq != 2 {
		t.Fatalf("head>budget clamp broken: %+v", got)
	}
	if got := TrimToBudget(evs, 3, -1); len(got) != 3 || got[0].Seq != 7 {
		t.Fatalf("negative head clamp broken: %+v", got)
	}
}
