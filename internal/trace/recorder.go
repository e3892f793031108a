package trace

import (
	"fmt"
)

// Recorder accumulates a Record during one run. It is single-writer: the
// discrete-event simulator records directly from its event loop, and the
// real-goroutine runtime records into per-worker buffers (WorkerTape) that
// the registry merges and feeds to the Recorder under its lock at barrier
// release, so the lock-free loop hot path never touches the Recorder.
//
// A Recorder serves exactly one run (one sim.RunLoop, one sim.RunLoops, or
// one rt loop/record batch): BeginRun fails on reuse.
type Recorder struct {
	rec   Record
	begun bool
	seq   int64
}

// RunMeta is the run-level header BeginRun stamps into the record.
type RunMeta struct {
	Engine     string
	Platform   PlatformRecord
	NThreads   int
	Binding    string
	Policy     string
	StartNs    int64
	Migrations []MigrationRecord
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// BeginRun stamps the run header. It fails if the recorder already served a
// run — a recorder must not be shared between runs, or the resulting record
// would interleave two event streams.
func (r *Recorder) BeginRun(meta RunMeta) error {
	if r.begun {
		return fmt.Errorf("trace: recorder already holds a run (one Recorder per recorded run)")
	}
	r.begun = true
	r.rec = Record{
		Version:    RecordVersion,
		Engine:     meta.Engine,
		Platform:   meta.Platform,
		NThreads:   meta.NThreads,
		Binding:    meta.Binding,
		Policy:     meta.Policy,
		StartNs:    meta.StartNs,
		Migrations: meta.Migrations,
	}
	return nil
}

// AddLoop registers a loop descriptor and returns its index (the value
// chunk events must carry in their Loop field).
func (r *Recorder) AddLoop(l LoopRecord) int {
	l.Index = len(r.rec.Loops)
	r.rec.Loops = append(r.rec.Loops, l)
	return l.Index
}

// SetLoopSchedule attaches the re-parseable schedule text to a registered
// loop (callers that know the rt.Schedule set it; engines only know the
// resolved scheduler name).
func (r *Recorder) SetLoopSchedule(idx int, text string) {
	r.rec.Loops[idx].Schedule = text
}

// ReserveChunks pre-sizes the event stream for n upcoming Chunk calls, so
// bulk merges (the registry feeding a whole run's worth of events) append
// without reallocating mid-stream.
func (r *Recorder) ReserveChunks(n int) {
	if free := cap(r.rec.Events) - len(r.rec.Events); free < n {
		evs := make([]ChunkEvent, len(r.rec.Events), len(r.rec.Events)+n)
		copy(evs, r.rec.Events)
		r.rec.Events = evs
	}
}

// Chunk appends one grant event, assigning its global sequence number.
func (r *Recorder) Chunk(ev ChunkEvent) {
	ev.Seq = r.seq
	r.seq++
	r.rec.Events = append(r.rec.Events, ev)
}

// Phase appends one scheduler transition.
func (r *Recorder) Phase(p PhaseEvent) {
	r.rec.Phases = append(r.rec.Phases, p)
	if p.SF != nil {
		r.rec.SFSamples = append(r.rec.SFSamples, SFSample{TimeNs: p.TimeNs, Loop: p.Loop, SF: p.SF})
	}
}

// SFSample appends one SF-trajectory point (engines add the final estimate
// of each loop at barrier release; transition-published estimates are added
// by Phase automatically).
func (r *Recorder) SFSample(s SFSample) {
	r.rec.SFSamples = append(r.rec.SFSamples, s)
}

// WorkerTape is one worker's append-only capture buffer under the
// real-goroutine engine. Only the owning worker appends, so the loop hot
// path needs no synchronization; publication to the merger happens through
// the registry lock at retirement. The registry owns the merge (it alone
// knows the per-worker capture order that breaks wall-clock ties); merged
// streams enter the Recorder through Chunk/Phase/SFSample.
type WorkerTape struct {
	Events []ChunkEvent
	Phases []PhaseEvent
}

// Reserve pre-sizes the tape for roughly nEvents chunk grants, so the
// capturing hot path does not grow its buffers mid-run. An estimate is
// fine: appends beyond the reservation still work, they just pay the
// reallocation the reservation exists to avoid.
func (t *WorkerTape) Reserve(nEvents int) {
	if nEvents > 0 && cap(t.Events) < nEvents {
		t.Events = make([]ChunkEvent, len(t.Events), nEvents)
	}
}

// EndRun finalizes the record with the run's makespan.
func (r *Recorder) EndRun(makespanNs int64) {
	r.rec.MakespanNs = makespanNs
}

// Record returns the accumulated record. The recorder retains ownership;
// callers must not mutate it while recording is still in progress.
func (r *Recorder) Record() *Record { return &r.rec }
