package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// metricName is the name rule every reported metric obeys: it starts with a
// letter or digit and holds at most 64 letters, digits, '_', '.' and '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name may be used as a metric name.
func validName(name string) bool { return metricName.MatchString(name) }

// checkNames reports an error unless the result carries exactly the
// end-to-end metrics of path (traced false) or its per-layer metrics
// (traced true).
func (r *result) checkNames(path string, traced bool) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	list := doc.EndToEnd
	if traced {
		list = doc.PerLayer
	}
	want := map[string]bool{}
	for _, m := range list {
		want[m.Name] = true
		if _, ok := r.Metrics[m.Name]; !ok {
			return fmt.Errorf("result lacks metric %s listed in %s", m.Name, path)
		}
	}
	for name := range r.Metrics {
		if !want[name] {
			return fmt.Errorf("result carries metric %s not listed in %s", name, path)
		}
	}
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the correctness verdict, the operation counts
// behind fail_ratio, and the metrics by name.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

// set records a metric. Names are validated here so a malformed name fails
// the run instead of producing output the consumer rejects.
func (r *result) set(name string, value float64, unit string) {
	if !validName(name) {
		panic(fmt.Sprintf("perfbench: invalid metric name %q", name))
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail marks n operations as failed and the run as incorrect, with a reason
// on standard error.
func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// writeJSON prints the result as one JSON line.
func (r *result) writeJSON(w io.Writer) error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// tailLadder is the set of percentiles the tail rule chooses from, highest
// first, in tenths of a percent (exact in integers).
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPercentile applies the reporting rule for a sample of n timings: the
// highest percentile of tailLadder that still has at least ten samples
// beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10
		}
	}
	return 0
}

// pct returns the p-th percentile of xs (linear interpolation, as
// stats.Percentile), or 0 for an empty sample.
func pct(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return pct(xs, 50) }

// fastestEach returns, for every operation, its lowest timing over the
// repetitions. Each set holds one repetition's timings of the same
// operations in the same order; operations past the shortest set are
// dropped. A percentile of the result describes the operations' own cost:
// host interference only ever slows an operation down, so a single
// repetition's tail mostly counts the operations the host happened to
// interrupt, and that count swings from run to run.
func fastestEach(sets [][]float64) []float64 {
	if len(sets) == 0 {
		return nil
	}
	n := len(sets[0])
	for _, s := range sets[1:] {
		n = min(n, len(s))
	}
	best := slices.Clone(sets[0][:n])
	for _, s := range sets[1:] {
		for i, v := range s[:n] {
			best[i] = min(best[i], v)
		}
	}
	return best
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// hostLine describes the machine a result was measured on.
func hostLine() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host nproc=%d GOMAXPROCS=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}
