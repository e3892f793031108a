package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/amp"
)

// RecordVersion is the current serialization format version. Decode accepts
// exactly the versions in [1, RecordVersion]; a record written by a newer
// build fails loudly instead of being misinterpreted. Version 2 added
// ChunkEvent.SchedNs and dropped the stored timeline ("iv" lines), which
// version 1 records still carry and DecodeJSONL skips.
const RecordVersion = 2

// Record is a complete, serializable description of one recorded run — the
// persistent form of the Paraver-style data this package previously only
// rendered and threw away. A record captures everything internal/replay
// needs to re-execute the run deterministically in virtual time: the
// platform model, the loop descriptors (workload + cost profile), every
// chunk grant with its runtime-cost metadata, the AID schedulers' phase
// transitions and the SF-estimate trajectory. The per-thread timeline is
// not stored: Trace derives it from the event stream.
//
// Records round-trip losslessly through EncodeJSONL/DecodeJSONL:
// DecodeJSONL(EncodeJSONL(r)) is reflect.DeepEqual to r.
type Record struct {
	// Version is the serialization format version (RecordVersion).
	Version int `json:"version"`
	// Engine identifies the producer: "sim" (discrete-event, virtual ns) or
	// "rt" (real goroutines, monotonic wall-clock ns).
	Engine string `json:"engine"`
	// Platform is the full machine model, sufficient to rebuild it.
	Platform PlatformRecord `json:"platform"`
	// NThreads is the worker-fleet size of the recorded run.
	NThreads int `json:"nthreads"`
	// Binding is the thread-to-core convention, "BS" or "SB".
	Binding string `json:"binding"`
	// Policy names the fairness policy of a multi-loop run ("" for
	// single-loop fork/join runs).
	Policy string `json:"policy,omitempty"`
	// StartNs is the run's start time on the producing engine's clock;
	// event times are absolute on that clock, not offsets from StartNs.
	StartNs int64 `json:"start_ns"`
	// MakespanNs is the start-to-last-barrier-release duration.
	MakespanNs int64 `json:"makespan_ns"`
	// Migrations lists the OS-driven thread migrations injected into the
	// run (sim only); replay re-injects them so speed tables evolve
	// identically.
	Migrations []MigrationRecord `json:"migrations,omitempty"`

	// Loops are the run's loop descriptors; ChunkEvent.Loop indexes them.
	Loops []LoopRecord `json:"-"`
	// Events is the chronological stream of chunk grants and retirements.
	Events []ChunkEvent `json:"-"`
	// Phases is the stream of AID scheduler transitions.
	Phases []PhaseEvent `json:"-"`
	// SFSamples is the SF-estimate trajectory (one sample per transition
	// that published an estimate, plus the final estimate per loop).
	SFSamples []SFSample `json:"-"`
}

// PlatformRecord is the serializable form of an amp.Platform.
type PlatformRecord struct {
	Name     string        `json:"name"`
	Clusters []amp.Cluster `json:"clusters"`
	Overhead amp.Overheads `json:"overhead"`
}

// PlatformRecordOf snapshots a platform into its serializable form.
func PlatformRecordOf(p *amp.Platform) PlatformRecord {
	return PlatformRecord{
		Name:     p.Name,
		Clusters: append([]amp.Cluster(nil), p.Clusters...),
		Overhead: p.Overhead,
	}
}

// Platform rebuilds the modeled machine.
func (pr PlatformRecord) Platform() (*amp.Platform, error) {
	return amp.New(pr.Name, pr.Clusters, pr.Overhead)
}

// MigrationRecord is one injected OS-driven thread migration.
type MigrationRecord struct {
	AtNs  int64 `json:"at_ns"`
	Tid   int   `json:"tid"`
	ToCPU int   `json:"to_cpu"`
}

// LoopRecord describes one loop of the recorded run.
type LoopRecord struct {
	// Index is the loop's position in Record.Loops (and the value
	// ChunkEvent.Loop carries).
	Index int `json:"index"`
	// Name is the loop's report name (e.g. "ep-main").
	Name string `json:"name"`
	// NI is the trip count.
	NI int64 `json:"ni"`
	// Weight is the fairness weight under multi-loop execution.
	Weight int `json:"weight,omitempty"`
	// Scheduler is the scheduling method as the scheduler reported it
	// (core.Scheduler.Name, e.g. "aid-dynamic").
	Scheduler string `json:"scheduler"`
	// Schedule is the re-parseable schedule selection in GOOMP_SCHEDULE
	// syntax (e.g. "aid-dynamic,1,5"). Replay's keep-recorded-schedule
	// what-if mode needs it; recorders that cannot derive it leave it
	// empty, and what-if then requires an explicit schedule override.
	Schedule string `json:"schedule,omitempty"`
	// Profile is the loop body's instruction mix.
	Profile amp.Profile `json:"profile"`
	// Cost is the closed-form cost model when the producer recognized one;
	// nil means replay reconstructs a piecewise cost from the per-event
	// Cost fields.
	Cost *CostRecord `json:"cost,omitempty"`
}

// CostRecord is the serializable form of the closed-form cost models.
type CostRecord struct {
	// Kind is "uniform", "linear" or "block".
	Kind string `json:"kind"`
	// Base is the uniform per-iteration cost, the linear base, or the
	// block base.
	Base float64 `json:"base"`
	// Slope is the linear drift (kind "linear").
	Slope float64 `json:"slope,omitempty"`
	// Amp, BlockLen and Seed parameterize block-correlated noise (kind
	// "block").
	Amp      float64 `json:"amp,omitempty"`
	BlockLen int64   `json:"block_len,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
}

// ChunkEvent is one scheduler grant: either a chunk assignment or, with
// Retire set, the final empty call that sends the thread to the loop's
// barrier (which still costs pool accesses and is therefore recorded).
type ChunkEvent struct {
	// Seq is the event's position in the engine's global grant order.
	Seq int64 `json:"seq"`
	// TimeNs is when the grant was issued on the producing engine's clock.
	TimeNs int64 `json:"time_ns"`
	// Tid is the worker thread the grant went to.
	Tid int `json:"tid"`
	// Loop indexes Record.Loops.
	Loop int `json:"loop"`
	// Lo, Hi delimit the granted iterations [Lo, Hi); both zero on retire.
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// Shard is the core-type shard the grant was served from (the
	// thread's home cluster at grant time).
	Shard int `json:"shard"`
	// Origin is the chunk's provenance as the scheduler reported it: the
	// owner core type of the shard the iterations were claimed from, or
	// core.OriginShared (-1) for central single-shard pools. Replayed
	// verbatim so the per-shard contention and provenance-tiered locality
	// charges match the original run.
	Origin int `json:"origin,omitempty"`
	// Cost is the chunk's work in abstract units (the simulator's
	// RangeUnits; derived from ExecNs and the speed model under rt).
	Cost float64 `json:"cost,omitempty"`
	// SchedNs is the scheduler-call window from TimeNs: the chunk starts
	// running at TimeNs+SchedNs, and a retiring worker finishes then.
	SchedNs int64 `json:"sched_ns,omitempty"`
	// ExecNs is the chunk's execution time on the producing engine.
	ExecNs int64 `json:"exec_ns,omitempty"`
	// PoolAccesses and Timestamps are the runtime-cost metadata of the
	// scheduler call, replayed verbatim so virtual-time charges match.
	PoolAccesses int `json:"pool,omitempty"`
	Timestamps   int `json:"ts,omitempty"`
	// Retire marks the final empty grant of (Loop, Tid).
	Retire bool `json:"retire,omitempty"`
}

// PhaseEvent is one recorded AID scheduler transition (see
// core.PhaseEvent; Loop additionally indexes Record.Loops).
type PhaseEvent struct {
	TimeNs int64     `json:"time_ns"`
	Tid    int       `json:"tid"`
	Loop   int       `json:"loop"`
	Epoch  int       `json:"epoch"`
	Kind   string    `json:"kind"`
	SF     []float64 `json:"sf,omitempty"`
}

// SFSample is one point of a loop's SF-estimate trajectory.
type SFSample struct {
	TimeNs int64     `json:"time_ns"`
	Loop   int       `json:"loop"`
	SF     []float64 `json:"sf"`
}

// ForkJoin reports whether the record is one loop run without a fairness
// policy: a fork/join loop that every worker joins at StartNs and leaves
// through one barrier. Replay runs such records through sim.RunLoop, and
// Trace views them with the barrier's lead-in, Sync and join tail.
func (r *Record) ForkJoin() bool { return len(r.Loops) == 1 && r.Policy == "" }

// Trace derives the per-thread timeline from the event stream (see
// FromEvents), or returns nil when the record has no events.
func (r *Record) Trace() *Trace {
	if len(r.Events) == 0 {
		return nil
	}
	return FromEvents(r.NThreads, r.Events, r.StartNs, r.StartNs+r.MakespanNs, r.ForkJoin())
}

// Validate checks a record's internal consistency (the invariants Decode
// enforces and replay relies on).
func (r *Record) Validate() error {
	if r.Version < 1 || r.Version > RecordVersion {
		return fmt.Errorf("trace: record version %d outside supported [1,%d]", r.Version, RecordVersion)
	}
	if r.Engine != "sim" && r.Engine != "rt" {
		return fmt.Errorf("trace: unknown record engine %q", r.Engine)
	}
	if r.NThreads <= 0 {
		return fmt.Errorf("trace: record has non-positive thread count %d", r.NThreads)
	}
	if r.Binding != "BS" && r.Binding != "SB" {
		return fmt.Errorf("trace: record binding %q is neither BS nor SB", r.Binding)
	}
	for i, l := range r.Loops {
		if l.Index != i {
			return fmt.Errorf("trace: loop %d carries index %d", i, l.Index)
		}
		if l.NI < 0 {
			return fmt.Errorf("trace: loop %d has negative trip count %d", i, l.NI)
		}
	}
	for i, ev := range r.Events {
		if ev.Loop < 0 || ev.Loop >= len(r.Loops) {
			return fmt.Errorf("trace: event %d references loop %d of %d", i, ev.Loop, len(r.Loops))
		}
		if ev.Tid < 0 || ev.Tid >= r.NThreads {
			return fmt.Errorf("trace: event %d references thread %d of %d", i, ev.Tid, r.NThreads)
		}
		if !ev.Retire && ev.Hi <= ev.Lo {
			return fmt.Errorf("trace: event %d grants empty range [%d,%d)", i, ev.Lo, ev.Hi)
		}
	}
	for i, p := range r.Phases {
		if p.Loop < 0 || p.Loop >= len(r.Loops) {
			return fmt.Errorf("trace: phase %d references loop %d of %d", i, p.Loop, len(r.Loops))
		}
		if p.Tid < 0 || p.Tid >= r.NThreads {
			return fmt.Errorf("trace: phase %d references thread %d of %d", i, p.Tid, r.NThreads)
		}
	}
	for i, s := range r.SFSamples {
		if s.Loop < 0 || s.Loop >= len(r.Loops) {
			return fmt.Errorf("trace: SF sample %d references loop %d of %d", i, s.Loop, len(r.Loops))
		}
	}
	return nil
}

// jsonlLine is the envelope of one serialized line: a type tag plus the
// type-specific payload.
type jsonlLine struct {
	T string          `json:"t"`
	D json.RawMessage `json:"d"`
}

// Line type tags of the JSONL format.
const (
	lineRun      = "run"
	lineLoop     = "loop"
	lineEvent    = "ev"
	linePhase    = "phase"
	lineSF       = "sf"
	lineInterval = "iv" // a stored timeline interval; version 1 only
)

func writeLine(w *bufio.Writer, tag string, v any) error {
	d, err := json.Marshal(v)
	if err != nil {
		return err
	}
	env, err := json.Marshal(jsonlLine{T: tag, D: d})
	if err != nil {
		return err
	}
	if _, err := w.Write(env); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// EncodeJSONL writes the record as JSON Lines: a "run" header line (version,
// engine, platform, fleet shape, makespan) followed by one line per loop
// descriptor, chunk event, phase transition and SF sample, in that order.
// The encoding is deterministic: encoding the same record twice yields
// byte-identical output (the property `make replay-determinism` checks end
// to end).
func EncodeJSONL(w io.Writer, r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if err := writeLine(bw, lineRun, r); err != nil {
		return err
	}
	for i := range r.Loops {
		if err := writeLine(bw, lineLoop, &r.Loops[i]); err != nil {
			return err
		}
	}
	for i := range r.Events {
		if err := writeLine(bw, lineEvent, &r.Events[i]); err != nil {
			return err
		}
	}
	for i := range r.Phases {
		if err := writeLine(bw, linePhase, &r.Phases[i]); err != nil {
			return err
		}
	}
	for i := range r.SFSamples {
		if err := writeLine(bw, lineSF, &r.SFSamples[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeJSONL reads a record previously written by EncodeJSONL. It fails on
// unknown versions, unknown line types and structurally invalid records, so
// a corrupt or future-format file cannot silently replay as garbage.
func DecodeJSONL(rd io.Reader) (*Record, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var rec *Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var env jsonlLine
		if err := json.Unmarshal(raw, &env); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if rec == nil && env.T != lineRun {
			return nil, fmt.Errorf("trace: line %d: expected run header, got %q", lineNo, env.T)
		}
		switch env.T {
		case lineRun:
			if rec != nil {
				return nil, fmt.Errorf("trace: line %d: duplicate run header", lineNo)
			}
			rec = &Record{}
			if err := json.Unmarshal(env.D, rec); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			if rec.Version < 1 || rec.Version > RecordVersion {
				return nil, fmt.Errorf("trace: unsupported record version %d (this build reads [1,%d])", rec.Version, RecordVersion)
			}
		case lineLoop:
			var l LoopRecord
			if err := json.Unmarshal(env.D, &l); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			rec.Loops = append(rec.Loops, l)
		case lineEvent:
			var ev ChunkEvent
			if err := json.Unmarshal(env.D, &ev); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			rec.Events = append(rec.Events, ev)
		case linePhase:
			var p PhaseEvent
			if err := json.Unmarshal(env.D, &p); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			rec.Phases = append(rec.Phases, p)
		case lineSF:
			var s SFSample
			if err := json.Unmarshal(env.D, &s); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			rec.SFSamples = append(rec.SFSamples, s)
		case lineInterval:
			if rec.Version > 1 {
				return nil, fmt.Errorf("trace: line %d: unknown line type %q in a version %d record", lineNo, env.T, rec.Version)
			}
			// A version 1 stored timeline; Trace derives it from the events.
		default:
			return nil, fmt.Errorf("trace: line %d: unknown line type %q", lineNo, env.T)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading record: %w", err)
	}
	if rec == nil {
		return nil, fmt.Errorf("trace: empty record stream")
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}
