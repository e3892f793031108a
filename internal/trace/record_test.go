package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/amp"
)

// sampleRecord builds a small, fully populated record by hand.
func sampleRecord() *Record {
	return &Record{
		Version:  RecordVersion,
		Engine:   "sim",
		Platform: PlatformRecordOf(amp.PlatformA()),
		NThreads: 4,
		Binding:  "BS",
		Policy:   "wrr",
		StartNs:  100,
		// Absolute times; makespan is a duration.
		MakespanNs: 4200,
		Migrations: []MigrationRecord{{AtNs: 900, Tid: 2, ToCPU: 1}},
		Loops: []LoopRecord{
			{Index: 0, Name: "ep-main", NI: 128, Weight: 2, Scheduler: "aid-dynamic",
				Schedule: "aid-dynamic,1,5", Profile: amp.Profile{ILP: 0.25, MemIntensity: 0.05, FootprintMB: 0.1},
				Cost: &CostRecord{Kind: "block", Base: 120000, Amp: 0.35, BlockLen: 256, Seed: 0xE9}},
			{Index: 1, Name: "is-l0", NI: 64, Weight: 1, Scheduler: "dynamic", Schedule: "dynamic,4",
				Profile: amp.Profile{ILP: 0.3, MemIntensity: 0.55, FootprintMB: 0.1},
				Cost:    &CostRecord{Kind: "uniform", Base: 230}},
		},
		Events: []ChunkEvent{
			{Seq: 0, TimeNs: 104, Tid: 0, Loop: 0, Lo: 0, Hi: 16, Shard: 0, Cost: 1234.5, SchedNs: 4, ExecNs: 700, PoolAccesses: 1, Timestamps: 1},
			{Seq: 1, TimeNs: 110, Tid: 1, Loop: 1, Lo: 0, Hi: 4, Shard: 1, Cost: 920, SchedNs: 10, ExecNs: 300, PoolAccesses: 2},
			{Seq: 2, TimeNs: 900, Tid: 0, Loop: 0, Retire: true, SchedNs: 2, PoolAccesses: 1},
		},
		Phases: []PhaseEvent{
			{TimeNs: 300, Tid: 3, Loop: 0, Epoch: 1, Kind: "r-initial", SF: []float64{2.5, 1}},
			{TimeNs: 800, Tid: 1, Loop: 0, Epoch: 2, Kind: "tail-switch"},
		},
		SFSamples: []SFSample{
			{TimeNs: 300, Loop: 0, SF: []float64{2.5, 1}},
			{TimeNs: 4200, Loop: 0, SF: []float64{2.4375, 1}},
		},
	}
}

func encodeToBytes(t *testing.T, r *Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, r); err != nil {
		t.Fatalf("EncodeJSONL: %v", err)
	}
	return buf.Bytes()
}

func TestRecordRoundTrip(t *testing.T) {
	want := sampleRecord()
	data := encodeToBytes(t, want)
	got, err := DecodeJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("DecodeJSONL: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	r := sampleRecord()
	if !bytes.Equal(encodeToBytes(t, r), encodeToBytes(t, r)) {
		t.Error("encoding the same record twice produced different bytes")
	}
}

// randomRecord generates a structurally valid record with randomized
// payloads — the property-test generator for the lossless-codec claim.
func randomRecord(rng *rand.Rand) *Record {
	engines := []string{"sim", "rt"}
	bindings := []string{"BS", "SB"}
	platforms := []*amp.Platform{amp.PlatformA(), amp.PlatformB(), amp.PlatformTri()}
	nThreads := 1 + rng.Intn(8)
	nLoops := 1 + rng.Intn(4)
	r := &Record{
		Version:    RecordVersion,
		Engine:     engines[rng.Intn(2)],
		Platform:   PlatformRecordOf(platforms[rng.Intn(3)]),
		NThreads:   nThreads,
		Binding:    bindings[rng.Intn(2)],
		StartNs:    rng.Int63n(1 << 20),
		MakespanNs: rng.Int63n(1 << 40),
	}
	if rng.Intn(2) == 0 {
		r.Policy = "wrr"
	}
	if rng.Intn(3) == 0 {
		r.Migrations = []MigrationRecord{{AtNs: rng.Int63n(1000), Tid: rng.Intn(nThreads), ToCPU: rng.Intn(8)}}
	}
	for li := 0; li < nLoops; li++ {
		l := LoopRecord{
			Index:     li,
			Name:      fmt.Sprintf("loop-%d", li),
			NI:        rng.Int63n(1 << 20),
			Weight:    rng.Intn(4),
			Scheduler: "aid-static",
			Profile:   amp.Profile{ILP: rng.Float64(), MemIntensity: rng.Float64(), FootprintMB: rng.Float64() * 4},
		}
		switch rng.Intn(4) {
		case 0:
			l.Cost = &CostRecord{Kind: "uniform", Base: rng.Float64() * 1e5}
		case 1:
			l.Cost = &CostRecord{Kind: "linear", Base: rng.Float64() * 1e4, Slope: rng.Float64()}
		case 2:
			l.Cost = &CostRecord{Kind: "block", Base: rng.Float64() * 1e5, Amp: rng.Float64() * 3,
				BlockLen: 1 + rng.Int63n(64), Seed: rng.Uint64()}
		}
		if rng.Intn(2) == 0 {
			l.Schedule = "aid-static,2"
		}
		r.Loops = append(r.Loops, l)
	}
	nEvents := rng.Intn(50)
	for i := 0; i < nEvents; i++ {
		ev := ChunkEvent{
			Seq:          int64(i),
			TimeNs:       rng.Int63n(1 << 40),
			Tid:          rng.Intn(nThreads),
			Loop:         rng.Intn(nLoops),
			Shard:        rng.Intn(3),
			Origin:       rng.Intn(4) - 1, // includes OriginShared (-1)
			PoolAccesses: rng.Intn(4),
			Timestamps:   rng.Intn(2),
		}
		if rng.Intn(8) == 0 {
			ev.Retire = true
		} else {
			ev.Lo = rng.Int63n(1 << 20)
			ev.Hi = ev.Lo + 1 + rng.Int63n(1024)
			ev.Cost = rng.Float64() * 1e7
			ev.ExecNs = rng.Int63n(1 << 30)
		}
		if rng.Intn(2) == 0 {
			ev.SchedNs = rng.Int63n(1 << 16)
		}
		r.Events = append(r.Events, ev)
	}
	for i := rng.Intn(5); i > 0; i-- {
		p := PhaseEvent{TimeNs: rng.Int63n(1 << 40), Tid: rng.Intn(nThreads),
			Loop: rng.Intn(nLoops), Epoch: rng.Intn(10), Kind: "r-smoothed"}
		if rng.Intn(2) == 0 {
			p.SF = []float64{1 + rng.Float64()*7, 1}
		}
		r.Phases = append(r.Phases, p)
	}
	for i := rng.Intn(5); i > 0; i-- {
		r.SFSamples = append(r.SFSamples, SFSample{TimeNs: rng.Int63n(1 << 40),
			Loop: rng.Intn(nLoops), SF: []float64{1 + rng.Float64()*7}})
	}
	return r
}

// TestRecordRoundTripProperty is the decode(encode(r)) == r property over
// randomized records, covering float round-tripping (JSON shortest-form
// float64 encoding is exact) and every optional section present/absent.
func TestRecordRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xA1D))
	for i := 0; i < 200; i++ {
		want := randomRecord(rng)
		data := encodeToBytes(t, want)
		got, err := DecodeJSONL(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("case %d: DecodeJSONL: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
		// Second-generation stability: re-encoding the decoded record must
		// be byte-identical (no normalization drift between generations).
		if !bytes.Equal(data, encodeToBytes(t, got)) {
			t.Fatalf("case %d: re-encoded record differs from first encoding", i)
		}
	}
}

func TestDecodeRejectsUnsupportedVersion(t *testing.T) {
	r := sampleRecord()
	r.Version = RecordVersion + 1
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, r); err == nil {
		// Encode validates too; craft the bad header by string surgery so
		// the decoder's own check is exercised.
		t.Fatal("EncodeJSONL accepted an unsupported version")
	}
	data := string(encodeToBytes(t, sampleRecord()))
	data = strings.Replace(data, fmt.Sprintf(`"version":%d`, RecordVersion),
		fmt.Sprintf(`"version":%d`, RecordVersion+1), 1)
	if _, err := DecodeJSONL(strings.NewReader(data)); err == nil {
		t.Error("DecodeJSONL accepted an unsupported version")
	} else if !strings.Contains(err.Error(), "version") {
		t.Errorf("error %q does not mention the version", err)
	}
}

// ivLine is a stored timeline interval as version 1 records carry them.
const ivLine = `{"t":"iv","d":{"tid":0,"start_ns":100,"end_ns":104,"state":1}}` + "\n"

// TestDecodeSkipsVersion1Timeline: a version 1 record's iv lines decode to
// nothing; the timeline is derived from the events instead.
func TestDecodeSkipsVersion1Timeline(t *testing.T) {
	want := sampleRecord()
	want.Version = 1
	data := string(encodeToBytes(t, want)) + ivLine
	got, err := DecodeJSONL(strings.NewReader(data))
	if err != nil {
		t.Fatalf("DecodeJSONL: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("v1 decode mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeRejectsTimelineInVersion2(t *testing.T) {
	data := string(encodeToBytes(t, sampleRecord())) + ivLine
	if _, err := DecodeJSONL(strings.NewReader(data)); err == nil || !strings.Contains(err.Error(), "unknown line type") {
		t.Errorf("DecodeJSONL of a v%d record with an iv line: err = %v, want unknown line type", RecordVersion, err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"not json":         "hello\n",
		"no header":        `{"t":"ev","d":{"seq":0}}` + "\n",
		"unknown line":     string(encodeToBytes(t, sampleRecord())) + `{"t":"wat","d":{}}` + "\n",
		"duplicate header": string(encodeToBytes(t, sampleRecord())) + string(encodeToBytes(t, sampleRecord())),
	}
	for name, data := range cases {
		if _, err := DecodeJSONL(strings.NewReader(data)); err == nil {
			t.Errorf("%s: DecodeJSONL succeeded, want error", name)
		}
	}
}

func TestDecodeRejectsInconsistentRecord(t *testing.T) {
	r := sampleRecord()
	r.Events[0].Loop = 99 // dangling loop reference
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, r); err == nil {
		t.Error("EncodeJSONL accepted an event referencing a missing loop")
	}
}

// TestRecordTraceReconstruction pins the timeline Record.Trace derives from
// the events, in the fork/join view and in the multi-loop view.
func TestRecordTraceReconstruction(t *testing.T) {
	r := &Record{Version: RecordVersion, Engine: "sim", NThreads: 2, StartNs: 100, MakespanNs: 1000,
		Loops: []LoopRecord{{Name: "l", NI: 20}},
		Events: []ChunkEvent{
			{TimeNs: 104, Tid: 0, Lo: 0, Hi: 16, SchedNs: 4, ExecNs: 700},
			{TimeNs: 110, Tid: 1, Lo: 16, Hi: 20, SchedNs: 10, ExecNs: 300},
			{TimeNs: 420, Tid: 1, Retire: true, SchedNs: 5},
			{TimeNs: 808, Tid: 0, Retire: true, SchedNs: 2},
		}}
	check := func(view string, want [][]Interval) {
		t.Helper()
		tr := r.Trace()
		for tid, w := range want {
			if got := tr.Intervals(tid); !reflect.DeepEqual(got, w) {
				t.Errorf("%s thread %d:\n got %v\nwant %v", view, tid, got, w)
			}
		}
	}
	// Fork/join: lead-in from StartNs, Sync to the last finish (810), join
	// tail to StartNs+MakespanNs.
	check("fork/join", [][]Interval{
		{{100, 108, Sched}, {108, 808, Running}, {808, 1100, Sched}},
		{{100, 120, Sched}, {120, 420, Running}, {420, 425, Sched}, {425, 810, Sync}, {810, 1100, Sched}},
	})
	r.Policy = "wrr"
	check("multi-loop", [][]Interval{
		{{104, 108, Sched}, {108, 808, Running}, {808, 810, Sched}},
		{{110, 120, Sched}, {120, 420, Running}, {420, 425, Sched}},
	})
	// A span overlapping its thread's previous interval (a per-loop
	// compacted stream) is clipped instead of failing.
	r.Events[2].TimeNs = 400
	check("clipped", [][]Interval{
		{{104, 108, Sched}, {108, 808, Running}, {808, 810, Sched}},
		{{110, 120, Sched}, {120, 420, Running}},
	})
	r.Events = nil
	if r.Trace() != nil {
		t.Error("Trace() != nil for a record without events")
	}
}

func TestRecorderSingleRun(t *testing.T) {
	rec := NewRecorder()
	meta := RunMeta{Engine: "sim", Platform: PlatformRecordOf(amp.PlatformA()), NThreads: 2, Binding: "BS"}
	if err := rec.BeginRun(meta); err != nil {
		t.Fatalf("BeginRun: %v", err)
	}
	if err := rec.BeginRun(meta); err == nil {
		t.Error("second BeginRun succeeded, want error")
	}
}

func TestRecorderPhaseDerivesSFSample(t *testing.T) {
	rec := NewRecorder()
	if err := rec.BeginRun(RunMeta{Engine: "rt", Platform: PlatformRecordOf(amp.PlatformA()), NThreads: 2, Binding: "BS"}); err != nil {
		t.Fatalf("BeginRun: %v", err)
	}
	li := rec.AddLoop(LoopRecord{Name: "l", NI: 8, Scheduler: "aid-static"})
	rec.Phase(PhaseEvent{TimeNs: 20, Tid: 1, Loop: li, Epoch: 1, Kind: "sf-published", SF: []float64{2, 1}})
	rec.Phase(PhaseEvent{TimeNs: 30, Tid: 0, Loop: li, Epoch: 2, Kind: "tail-switch"})
	r := rec.Record()
	if len(r.Phases) != 2 {
		t.Fatalf("recorded %d phases, want 2", len(r.Phases))
	}
	if len(r.SFSamples) != 1 || r.SFSamples[0].TimeNs != 20 || r.SFSamples[0].Loop != li {
		t.Errorf("SF-bearing phase did not derive exactly one sample: %+v", r.SFSamples)
	}
}

func TestValidateRejectsOutOfRangeReferences(t *testing.T) {
	cases := map[string]func(*Record){
		"event tid":      func(r *Record) { r.Events[0].Tid = r.NThreads },
		"phase tid":      func(r *Record) { r.Phases[0].Tid = -1 },
		"phase loop":     func(r *Record) { r.Phases[0].Loop = len(r.Loops) },
		"sf sample loop": func(r *Record) { r.SFSamples[0].Loop = 99 },
	}
	for name, corrupt := range cases {
		r := sampleRecord()
		corrupt(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an out-of-range reference", name)
		}
	}
}
