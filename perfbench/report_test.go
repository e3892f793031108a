package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, name := range []string{"run_s", "rt.chunk_gap_ns", "core.next_ns.aid-dynamic", "9lives", strings.Repeat("a", 64)} {
		if !validName(name) {
			t.Errorf("validName(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "-x", "a b", "a/b", "p99%", "é", strings.Repeat("a", 65)} {
		if validName(name) {
			t.Errorf("validName(%q) = true, want false", name)
		}
	}
}

func TestSetRejectsInvalidName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("set accepted an invalid metric name")
		}
	}()
	newResult().set("bad name", 1, "s")
}

// TestBenchmarkFile checks BENCHMARK.json against the rules its consumer
// applies: exact keys, valid unique names and units, bounds, and one-line
// why notes of workloads the benchmark runs.
func TestBenchmarkFile(t *testing.T) {
	path := filepath.Join("..", benchmarkFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	want := "command end_to_end paths per_layer run_seconds workloads"
	sort.Strings(keys)
	if got := strings.Join(keys, " "); got != want {
		t.Fatalf("keys %q, want %q", got, want)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, u, better string) {
		if !validName(name) || seen[name] {
			t.Errorf("metric name %q invalid or repeated", name)
		}
		seen[name] = true
		if !unit.MatchString(u) {
			t.Errorf("metric %s: unit %q invalid", name, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %s: better %q", name, better)
		}
	}
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range spec.Workloads {
		if !validName(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: invalid name or why note", w.Name)
		}
		if !strings.Contains(" "+strings.Join(workloads, " ")+" ", " "+w.Name+" ") {
			t.Errorf("workload %q is not one the benchmark runs", w.Name)
		}
	}
}

func TestServePlanDeterministic(t *testing.T) {
	a, err := servePlan(400, 2*time.Second, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := servePlan(400, 2*time.Second, 3, 7)
	c, _ := servePlan(400, 2*time.Second, 3, 8)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("plans of one seed have %d and %d arrivals", len(a), len(b))
	}
	same := len(a) == len(c)
	for i := range a {
		if a[i].intended != b[i].intended || a[i].n != b[i].n || a[i].class != b[i].class {
			t.Fatalf("arrival %d differs between two plans of one seed", i)
		}
		if i > 0 && a[i].intended <= a[i-1].intended {
			t.Fatalf("arrival %d at %v not after %v", i, a[i].intended, a[i-1].intended)
		}
		if want := int64(serveShort); i%5 != 4 && a[i].n != want || i%5 == 4 && a[i].n != serveLong {
			t.Fatalf("arrival %d has %d iterations, want the 4:1 short/long mix", i, a[i].n)
		}
		if a[i].class != i%3 {
			t.Fatalf("arrival %d in class %d, want %d", i, a[i].class, i%3)
		}
		if same && i < len(c) && a[i].intended != c[i].intended {
			same = false
		}
	}
	if same {
		t.Error("plans of seeds 7 and 8 are identical")
	}
}

func TestFastestEach(t *testing.T) {
	got := fastestEach([][]float64{{3, 1, 5, 9}, {2, 4, 6}, {4, 0.5, 1}})
	want := []float64{2, 0.5, 1}
	if len(got) != len(want) {
		t.Fatalf("fastestEach = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fastestEach = %v, want %v", got, want)
		}
	}
	if got := fastestEach(nil); got != nil {
		t.Errorf("fastestEach(nil) = %v, want nil", got)
	}
}
