package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 3},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1}, 0},
		{"many", []float64{1, 2, 3, 4, 5}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestGeoMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{1, 4}, 2},
		{"triple", []float64{1, 2, 4}, 2},
		{"identity", []float64{7, 7, 7}, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := GeoMean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("GeoMean(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestGeoMeanLEMean(t *testing.T) {
	// AM-GM inequality: geomean <= mean for positive inputs.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1 // strictly positive
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	mn, err := Min(xs)
	if err != nil || mn != 1 {
		t.Errorf("Min = %v, %v; want 1, nil", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 9 {
		t.Errorf("Max = %v, %v; want 9, nil", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMedian(t *testing.T) {
	odd := []float64{5, 1, 3}
	if m, err := Median(odd); err != nil || m != 3 {
		t.Errorf("Median(odd) = %v, %v", m, err)
	}
	even := []float64{4, 1, 3, 2}
	if m, err := Median(even); err != nil || m != 2.5 {
		t.Errorf("Median(even) = %v, %v", m, err)
	}
	if _, err := Median(nil); err != ErrEmpty {
		t.Errorf("Median(nil) err = %v", err)
	}
	// Median must not mutate its input.
	in := []float64{9, 1, 5}
	if _, err := Median(in); err != nil {
		t.Fatal(err)
	}
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Errorf("Median mutated input: %v", in)
	}
}

func TestNormalizeAndSpeedup(t *testing.T) {
	got := Normalize([]float64{2, 4, 8}, 4)
	want := []float64{0.5, 1, 2}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("Normalize[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if s := Speedup(10, 5); s != 2 {
		t.Errorf("Speedup(10,5) = %v, want 2", s)
	}
}

func TestRelGainPct(t *testing.T) {
	// next twice as fast as prev -> +100% gain.
	if g := RelGainPct(10, 5); !almostEqual(g, 100, 1e-12) {
		t.Errorf("RelGainPct(10,5) = %v, want 100", g)
	}
	// no change -> 0%.
	if g := RelGainPct(7, 7); !almostEqual(g, 0, 1e-12) {
		t.Errorf("RelGainPct(7,7) = %v, want 0", g)
	}
	// regression -> negative.
	if g := RelGainPct(5, 10); !almostEqual(g, -50, 1e-12) {
		t.Errorf("RelGainPct(5,10) = %v, want -50", g)
	}
}

func TestAggregateRuns(t *testing.T) {
	// First run discarded; geomean of the rest.
	got, err := AggregateRuns([]float64{100, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 2, 1e-12) {
		t.Errorf("AggregateRuns = %v, want 2", got)
	}
	if _, err := AggregateRuns([]float64{1}); err == nil {
		t.Error("AggregateRuns with one run should error")
	}
	if _, err := AggregateRuns(nil); err == nil {
		t.Error("AggregateRuns(nil) should error")
	}
}

func TestMeanGainPct(t *testing.T) {
	a := []float64{10, 10}
	b := []float64{5, 10} // one app 2x faster, one unchanged
	if g := MeanGainPct(a, b); !almostEqual(g, 50, 1e-12) {
		t.Errorf("MeanGainPct = %v, want 50", g)
	}
}

func TestGeoMeanGainPct(t *testing.T) {
	a := []float64{10, 10}
	b := []float64{5, 20} // ratios 2 and 0.5 -> geomean 1 -> 0% gain
	if g := GeoMeanGainPct(a, b); !almostEqual(g, 0, 1e-9) {
		t.Errorf("GeoMeanGainPct = %v, want 0", g)
	}
}

func TestGainPctProperties(t *testing.T) {
	// For identical time vectors the gains must be exactly zero.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1
		}
		return almostEqual(MeanGainPct(xs, xs), 0, 1e-9) &&
			almostEqual(GeoMeanGainPct(xs, xs), 0, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("equal shares: JainIndex = %v, want 1", got)
	}
	// One tenant monopolizing n tenants' resource scores exactly 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("monopoly: JainIndex = %v, want 0.25", got)
	}
	if got := JainIndex([]float64{4, 2}); !almostEqual(got, 0.9, 1e-12) {
		t.Errorf("2:1 split: JainIndex = %v, want 0.9", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty: JainIndex = %v, want 0", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero: JainIndex = %v, want 0", got)
	}
	// Scale invariance: the index only sees the shape of the allocation.
	a := []float64{1, 2, 3, 4}
	b := []float64{10, 20, 30, 40}
	if !almostEqual(JainIndex(a), JainIndex(b), 1e-12) {
		t.Errorf("not scale invariant: %v vs %v", JainIndex(a), JainIndex(b))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 20, 30} // deliberately unsorted
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10},
		{25, 17.5},
		{50, 25}, // even length: average of the two central elements
		{75, 32.5},
		{100, 40},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("Percentile modified its input")
	}
	if got, _ := Percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("odd-length p50 = %v, want 2", got)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("empty slice: err = %v, want ErrEmpty", err)
	}
	for _, p := range []float64{-1, 101, math.NaN()} {
		if _, err := Percentile([]float64{1}, p); err == nil {
			t.Errorf("Percentile(_, %v) accepted an out-of-range p", p)
		}
	}
}

// TestMedianIsPercentile50 pins the consistency the aidserve report bug
// violated: a hand-rolled sorted[len/2] median disagrees with Median for
// even lengths; Median and Percentile(50) must always agree.
func TestMedianIsPercentile50(t *testing.T) {
	cases := [][]float64{
		{5},
		{1, 2},
		{3, 1, 2},
		{4, 1, 3, 2},
		{10, 20, 30, 40, 50, 60},
	}
	for _, xs := range cases {
		m, err1 := Median(xs)
		p, err2 := Percentile(xs, 50)
		if err1 != nil || err2 != nil {
			t.Fatalf("Median/Percentile errored: %v %v", err1, err2)
		}
		if m != p {
			t.Errorf("Median(%v) = %v but Percentile(50) = %v", xs, m, p)
		}
	}
	// The even-length case the off-by-one median got wrong: upper-mid 30
	// instead of 25.
	if m, _ := Median([]float64{10, 20, 30, 40}); m != 25 {
		t.Errorf("Median of {10,20,30,40} = %v, want 25", m)
	}
}
