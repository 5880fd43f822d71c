package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// histTolerance is the histogram's worst-case relative error: with 16
// buckets per octave a bucket spans a factor of 2^(1/16) ≈ 1.0443, so the
// geometric midpoint is within ±2.2% of any sample in the bucket.
const histTolerance = 0.025

func approxEq(got, want float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want) <= histTolerance*math.Abs(want)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 10000 {
		t.Fatalf("counter = %d, want 10000", got)
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); got != 50.5 {
		t.Fatalf("mean = %v, want 50.5 (mean is exact, not bucketed)", got)
	}
	if got := h.Percentile(0.5); !approxEq(got, 50) {
		t.Fatalf("p50 = %v, want ≈50", got)
	}
	if got := h.Percentile(0.99); !approxEq(got, 99) {
		t.Fatalf("p99 = %v, want ≈99", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("max = %v, want 100 (max is exact)", got)
	}
	if got := h.Percentile(1); got != 100 {
		t.Fatalf("p100 = %v, want exactly max", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(0.9) != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramRecordDuration(t *testing.T) {
	var h Histogram
	h.RecordDuration(1500 * time.Microsecond)
	if got := h.Mean(); got != 1.5 {
		t.Fatalf("duration sample = %v ms, want 1.5", got)
	}
	if got := h.Percentile(0.5); !approxEq(got, 1.5) {
		t.Fatalf("p50 = %v, want ≈1.5", got)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Record(7)
	if got := h.Percentile(0); !approxEq(got, 7) {
		t.Fatalf("p0 = %v, want ≈7", got)
	}
	if got := h.Percentile(1); got != 7 {
		t.Fatalf("p100 = %v, want exactly 7", got)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Record(0)
	h.Record(-3)
	h.Record(10)
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	// Two of three samples are ≤0, so the median is the zero bucket.
	if got := h.Percentile(0.5); got != 0 {
		t.Fatalf("p50 = %v, want 0", got)
	}
	if got := h.Percentile(1); got != 10 {
		t.Fatalf("p100 = %v, want 10", got)
	}
}

func TestHistogramRelativeErrorBound(t *testing.T) {
	// Percentiles of a log-uniform sample set must track the true order
	// statistics within the advertised relative error.
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	vals := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := math.Exp(rng.Float64()*14 - 7) // ~1e-3 .. ~1e3
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		idx := int(math.Ceil(q*float64(len(vals)))) - 1
		want := vals[idx]
		got := h.Percentile(q)
		if math.Abs(got-want)/want > histTolerance {
			t.Fatalf("p%v = %v, true order statistic %v (rel err %.4f > %.4f)",
				q*100, got, want, math.Abs(got-want)/want, histTolerance)
		}
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(rng.Float64() * 100)
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	m := h.Mean()
	if m < 40 || m > 60 {
		t.Fatalf("mean of uniform(0,100) samples = %v, want ≈50", m)
	}
}

func TestRegistryIdentity(t *testing.T) {
	var r Registry
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name should return same counter")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name should return same histogram")
	}
	if r.Counter("a") == r.Counter("b") {
		t.Fatal("different names should return different counters")
	}
	if _, ok := r.LookupHistogram("absent"); ok {
		t.Fatal("LookupHistogram must not create")
	}
	if got, ok := r.LookupHistogram("h"); !ok || got != r.Histogram("h") {
		t.Fatal("LookupHistogram should find the registered histogram")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	var r Registry
	r.Counter("aborts").Add(3)
	r.Histogram("bind_ms").Record(2.0)
	snap := r.Snapshot()
	if !strings.Contains(snap, "aborts") || !strings.Contains(snap, "bind_ms") {
		t.Fatalf("snapshot missing entries:\n%s", snap)
	}
	if !strings.Contains(snap, "3") {
		t.Fatalf("snapshot missing counter value:\n%s", snap)
	}
	if !strings.Contains(snap, "p999") {
		t.Fatalf("snapshot missing p999 column:\n%s", snap)
	}
}
