package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/trace"
)

// goldenDigest pins the simulator's output bit for bit: every LoopResult
// field, the encoded JSONL run record and the trace intervals of the cases
// below. A change to it means simulated numbers moved; a pure refactor of
// the engine must leave it untouched.
const goldenDigest = "cc2f96bf3683a2c7485df13ff33cdf4885d3aa172709fcf34a64ff6440329c26"

var goldenFactories = []struct {
	name string
	f    SchedulerFactory
}{
	{"static", staticFactory},
	{"dynamic", func(info core.LoopInfo) (core.Scheduler, error) { return core.NewDynamic(info, 4) }},
	{"guided", func(info core.LoopInfo) (core.Scheduler, error) { return core.NewGuided(info, 2) }},
	{"aid-static", aidStaticFactory},
	{"aid-dynamic", func(info core.LoopInfo) (core.Scheduler, error) { return core.NewAIDDynamic(info, 1, 8) }},
}

// goldenLoop has a drifting per-iteration cost and a memory share, so
// imbalance, cluster occupancy and migrations all move the numbers.
func goldenLoop(name string, ni int64) LoopSpec {
	return LoopSpec{
		Name:    name,
		NI:      ni,
		Profile: amp.Profile{ILP: 0.7, MemIntensity: 0.25, FootprintMB: 0.3},
		Cost:    LinearCost{Base: 30000, Slope: 4},
	}
}

// crossMigrations moves the first and the last worker each to the lowest
// CPU of another cluster, at two points inside the loop.
func crossMigrations(cfg Config) []Migration {
	pl := cfg.Platform
	var migs []Migration
	for i, tid := range []int{0, cfg.NThreads - 1} {
		home := pl.ClusterOf(pl.CoreOf(tid, cfg.NThreads, cfg.Binding))
		for cpu := 0; cpu < pl.NumCores(); cpu++ {
			if pl.ClusterOf(cpu) != home {
				migs = append(migs, Migration{AtNs: int64(1+2*i) * 1_000_000, Tid: tid, ToCPU: cpu})
				break
			}
		}
	}
	return migs
}

// hashResult folds one LoopResult into h. JSON encodes floats in their
// shortest round-trip form, so equal bytes mean bit-equal values.
func hashResult(t *testing.T, h hash.Hash, r LoopResult) {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
}

func hashRecord(t *testing.T, h hash.Hash, rec *trace.Recorder) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeJSONL(&buf, rec.Record()); err != nil {
		t.Fatal(err)
	}
	h.Write(buf.Bytes())
}

func hashTrace(h hash.Hash, tr *trace.Trace) {
	for tid := 0; tid < tr.NThreads(); tid++ {
		fmt.Fprintf(h, "%d:%v;", tid, tr.Intervals(tid))
	}
}

// TestGoldenDigest is the characterization test of both entry points:
// RunLoop on platforms A and Hybrid under five schedulers in a plain run, a
// traced+recorded+metered run and a run with two cross-cluster migrations,
// and RunLoops with five staggered, weighted loops under WRR, FCFS and
// SF-aware picks with recorder and metrics on.
func TestGoldenDigest(t *testing.T) {
	all := sha256.New()
	platforms := []struct {
		pl      *amp.Platform
		nt      int
		binding amp.Binding
	}{
		{amp.PlatformA(), 8, amp.BindBS},
		{amp.PlatformHybrid(), 10, amp.BindSB},
	}
	for _, p := range platforms {
		for _, gf := range goldenFactories {
			for _, mode := range []string{"plain", "observed", "migrations"} {
				cfg := Config{Platform: p.pl, NThreads: p.nt, Binding: p.binding, Factory: gf.f}
				var rec *trace.Recorder
				switch mode {
				case "observed":
					cfg.Trace = trace.New(p.nt)
					rec = trace.NewRecorder()
					cfg.Recorder = rec
					cfg.Metrics = true
				case "migrations":
					cfg.Migrations = crossMigrations(cfg)
				}
				r, err := RunLoop(cfg, goldenLoop("golden", 6000), 7777)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", p.pl.Name, gf.name, mode, err)
				}
				h := sha256.New()
				hashResult(t, h, r)
				if rec != nil {
					hashRecord(t, h, rec)
					hashTrace(h, cfg.Trace)
				}
				sum := h.Sum(nil)
				t.Logf("RunLoop %s/%s/%s %x", p.pl.Name, gf.name, mode, sum[:6])
				all.Write(sum)
			}
		}
	}

	policies := []struct {
		pl     *amp.Platform
		nt     int
		policy fair.Policy
	}{
		{amp.PlatformA(), 8, fair.NewWeightedRoundRobin(0)},
		{amp.PlatformA(), 8, fair.NewFCFS()},
		{amp.PlatformHybrid(), 12, fair.NewSFAware(0, 0)},
	}
	for _, p := range policies {
		rec := trace.NewRecorder()
		cfg := Config{Platform: p.pl, NThreads: p.nt, Binding: amp.BindBS,
			Recorder: rec, Metrics: true,
			FactoryNamed: func(name string, info core.LoopInfo) (core.Scheduler, error) {
				for _, gf := range goldenFactories {
					if gf.name == name {
						return gf.f(info)
					}
				}
				return nil, fmt.Errorf("no factory %q", name)
			}}
		arrive := []int64{0, 0, 150_000, 400_000, 900_000}
		weights := []int{1, 4, 2, 0, 8}
		specs := make([]LoopSpec, len(goldenFactories))
		for i, gf := range goldenFactories {
			specs[i] = goldenLoop(gf.name, int64(1500+700*i))
			specs[i].Arrive = 5000 + arrive[i]
			specs[i].Weight = weights[i]
		}
		rs, err := RunLoops(cfg, specs, p.policy, 5000)
		if err != nil {
			t.Fatalf("RunLoops %s/%s: %v", p.pl.Name, p.policy.Name(), err)
		}
		h := sha256.New()
		for _, r := range rs {
			hashResult(t, h, r)
		}
		hashRecord(t, h, rec)
		sum := h.Sum(nil)
		t.Logf("RunLoops %s/%s %x", p.pl.Name, p.policy.Name(), sum[:6])
		all.Write(sum)
	}

	if got := hex.EncodeToString(all.Sum(nil)); got != goldenDigest {
		t.Errorf("golden digest = %s, want %s", got, goldenDigest)
	}
}
