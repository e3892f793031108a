package pool

import (
	"fmt"
	"sync/atomic"
)

// SampleCounters implements footnote 2 of §4.2: to approximate a loop's SF
// in a scalable fashion, the runtime keeps, for each core type, a shared
// counter of the summed sampling-phase execution times plus a thread count.
// The average per core type is sum/count. A separate counter tracks how many
// threads have completed the sampling phase so the last one can be detected
// without locks.
type SampleCounters struct {
	sumNs  []atomic.Int64
	counts []atomic.Int64
	done   atomic.Int64
	total  int64
}

// NewSampleCounters returns counters for nCoreTypes core types and nThreads
// participating threads. Both must be positive.
func NewSampleCounters(nCoreTypes int, nThreads int) *SampleCounters {
	if nCoreTypes <= 0 {
		panic(fmt.Sprintf("pool: non-positive core type count %d", nCoreTypes))
	}
	if nThreads <= 0 {
		panic(fmt.Sprintf("pool: non-positive thread count %d", nThreads))
	}
	return &SampleCounters{
		sumNs:  make([]atomic.Int64, nCoreTypes),
		counts: make([]atomic.Int64, nCoreTypes),
		total:  int64(nThreads),
	}
}

// Record adds one thread's sampling-phase completion time (in ns) for its
// core type and marks the thread as done. It returns true when the calling
// thread was the LAST one to complete the sampling phase — that thread is
// responsible for computing SF and k (Fig. 3).
func (sc *SampleCounters) Record(coreType int, elapsedNs int64) (last bool) {
	sc.Add(coreType, elapsedNs)
	return sc.done.Add(1) == sc.total
}

// Add accumulates one sample without touching the completion counter.
// Schedulers that track phase completion externally (the packed epoch word
// of the lock-free AID state machines) use Add and detect the last thread
// themselves.
func (sc *SampleCounters) Add(coreType int, elapsedNs int64) {
	sc.sumNs[coreType].Add(elapsedNs)
	sc.counts[coreType].Add(1)
}

// AllDone reports whether every participating thread has recorded a sample.
func (sc *SampleCounters) AllDone() bool { return sc.done.Load() >= sc.total }

// Avg returns the average sampling time for a core type in ns, and ok=false
// when no thread of that type recorded a sample.
func (sc *SampleCounters) Avg(coreType int) (float64, bool) {
	n := sc.counts[coreType].Load()
	if n == 0 {
		return 0, false
	}
	return float64(sc.sumNs[coreType].Load()) / float64(n), true
}

// Reset re-arms the counters for a new sampling round (used by AID-dynamic,
// whose AID phases each double as the next sampling phase, Fig. 5).
func (sc *SampleCounters) Reset() {
	for i := range sc.sumNs {
		sc.sumNs[i].Store(0)
		sc.counts[i].Store(0)
	}
	sc.done.Store(0)
}
