package pool

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// This file holds the single-counter iteration pool, the libgomp-style
// fetch-and-add baseline the tests and benchmarks compare the sharded pool
// against. No scheduler uses it.

// WorkShare is the per-loop iteration pool. All methods are safe for
// concurrent use by worker threads.
type WorkShare struct {
	next atomic.Int64
	end  int64
}

// NewWorkShare returns a pool over the iteration space [0, ni). ni may be 0
// (an empty loop); negative trip counts are a programming error and panic.
func NewWorkShare(ni int64) *WorkShare {
	if ni < 0 {
		panic(fmt.Sprintf("pool: negative iteration count %d", ni))
	}
	ws := &WorkShare{end: ni}
	return ws
}

// End returns one past the last iteration of the loop.
func (ws *WorkShare) End() int64 { return ws.end }

// Next returns the first iteration not yet assigned to any thread. The value
// may exceed End once the pool is drained (fetch-and-add overshoots).
func (ws *WorkShare) Next() int64 { return ws.next.Load() }

// Remaining returns the number of unassigned iterations (never negative).
func (ws *WorkShare) Remaining() int64 {
	r := ws.end - ws.next.Load()
	if r < 0 {
		return 0
	}
	return r
}

// TrySteal atomically removes up to chunk iterations from the pool, exactly
// as gomp_iter_dynamic_next does with fetch-and-add: it increments `next` by
// chunk and clips the claimed range against `end`. It returns the claimed
// half-open range [lo, hi) and ok=false when the pool was already drained.
// chunk must be positive.
func (ws *WorkShare) TrySteal(chunk int64) (lo, hi int64, ok bool) {
	if chunk <= 0 {
		panic(fmt.Sprintf("pool: non-positive chunk %d", chunk))
	}
	lo = ws.next.Add(chunk) - chunk
	if lo >= ws.end {
		return 0, 0, false
	}
	hi = lo + chunk
	if hi > ws.end {
		hi = ws.end
	}
	return lo, hi, true
}

// TryStealRest atomically claims all remaining iterations. Used by the
// AID-static final assignment for the last thread, which must take whatever
// is left so no iteration is orphaned by SF rounding.
func (ws *WorkShare) TryStealRest() (lo, hi int64, ok bool) {
	for {
		cur := ws.next.Load()
		if cur >= ws.end {
			return 0, 0, false
		}
		if ws.next.CompareAndSwap(cur, ws.end) {
			return cur, ws.end, true
		}
	}
}

// TryStealFunc atomically claims a chunk whose size depends on the number of
// remaining iterations, as the guided schedule requires (chunk =
// max(remaining/nthreads, minChunk)). sizeOf receives the remaining count
// (always > 0) and must return a positive size; it may be called several
// times if the CAS races with other threads. retries reports how many CAS
// attempts failed, which the simulator charges as extra pool accesses.
func (ws *WorkShare) TryStealFunc(sizeOf func(remaining int64) int64) (lo, hi int64, ok bool, retries int) {
	for {
		cur := ws.next.Load()
		if cur >= ws.end {
			return 0, 0, false, retries
		}
		size := sizeOf(ws.end - cur)
		if size <= 0 {
			panic(fmt.Sprintf("pool: sizeOf returned non-positive size %d", size))
		}
		hi = cur + size
		if hi > ws.end {
			hi = ws.end
		}
		if ws.next.CompareAndSwap(cur, hi) {
			return cur, hi, true, retries
		}
		retries++
	}
}

// BenchmarkWorkShareSteal measures the lock-free iteration pool's
// fetch-and-add path (the hot path of every dynamic-family schedule).
func BenchmarkWorkShareSteal(b *testing.B) {
	ws := NewWorkShare(int64(b.N) + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.TrySteal(1)
	}
}

// BenchmarkWorkShareStealParallel measures the pool under goroutine
// contention.
func BenchmarkWorkShareStealParallel(b *testing.B) {
	ws := NewWorkShare(int64(b.N) + 1024)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ws.TrySteal(1)
		}
	})
}
