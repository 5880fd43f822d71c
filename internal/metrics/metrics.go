// Package metrics provides light-weight counters and histograms used by the
// experiment harness to measure the behaviours the paper describes
// qualitatively (abort rates, bind latencies, divergence counts, …).
//
// The package is deliberately tiny and allocation-light so that recording a
// sample does not perturb the benchmarks that use it.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count, safe for concurrent use.
type Counter struct {
	n atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta (which may be negative only in tests; production callers
// should treat counters as monotonic).
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Histogram bucket geometry: values are placed in geometrically growing
// buckets, histBucketsPerOctave per power of two, covering 2^histOctaveMin
// up to 2^histOctaveMax (values outside clamp to the edge buckets; values
// ≤ 0 land in a dedicated zero bucket). With 16 sub-buckets per octave the
// representative (geometric bucket midpoint) is within ±2.2% of any sample
// in the bucket — HDR-style accuracy at fixed memory.
const (
	histBucketsPerOctave = 16
	histOctaveMin        = -20 // 2^-20 ≈ 1e-6: sub-microsecond when recording ms
	histOctaveMax        = 44  // 2^44 ≈ 1.8e13: ~500 years when recording ms
	histBuckets          = (histOctaveMax - histOctaveMin) * histBucketsPerOctave
)

// Histogram is a log-bucketed latency/value histogram: fixed memory
// (~8 KiB), lock-free recording, and percentile queries with bounded
// relative error (±2.2%), so tail latencies (p99/p999) are first-class;
// unlike a raw-sample store it never grows. The zero value is ready to use
// and safe for concurrent use.
type Histogram struct {
	total  atomic.Int64
	zero   atomic.Int64  // samples ≤ 0
	sum    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits (exact, not bucketed)
	counts [histBuckets]atomic.Int64
}

// bucketOf maps a positive sample to its bucket index.
func bucketOf(v float64) int {
	i := int(math.Floor(math.Log2(v)*histBucketsPerOctave)) - histOctaveMin*histBucketsPerOctave
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Record adds one sample.
func (h *Histogram) Record(v float64) {
	h.total.Add(1)
	for {
		cur := h.sum.Load()
		if h.sum.CompareAndSwap(cur, math.Float64bits(math.Float64frombits(cur)+v)) {
			break
		}
	}
	if v <= 0 || math.IsNaN(v) {
		h.zero.Add(1)
		return
	}
	for {
		cur := h.max.Load()
		if v <= math.Float64frombits(cur) || h.max.CompareAndSwap(cur, math.Float64bits(v)) {
			break
		}
	}
	h.counts[bucketOf(v)].Add(1)
}

// RecordDuration records a duration in milliseconds — the unit every
// latency histogram in this module uses.
func (h *Histogram) RecordDuration(d time.Duration) {
	h.Record(float64(d) / float64(time.Millisecond))
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Mean returns the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return math.Float64frombits(h.sum.Load()) / float64(n)
}

// Percentile returns the value at or below which q (0 ≤ q ≤ 1) of the
// samples fall, or 0 if empty. The answer is a bucket representative —
// within ±2.2% of the true order statistic — except at the top, where the
// exact maximum caps it.
func (h *Histogram) Percentile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	mx := math.Float64frombits(h.max.Load())
	if rank >= total {
		return mx
	}
	cum := h.zero.Load()
	if rank <= cum {
		return 0
	}
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if rank <= cum {
			if v := bucketValueAt(i); v < mx {
				return v
			}
			return mx
		}
	}
	return mx
}

// bucketValueAt is bucket i's representative: the geometric midpoint of
// its bounds, with the octave offset folded into the exponent. Index i
// spans [2^((i+off)/16), 2^((i+off+1)/16)) where off = histOctaveMin*16.
func bucketValueAt(i int) float64 {
	return math.Exp2((float64(i+histOctaveMin*histBucketsPerOctave) + 0.5) / histBucketsPerOctave)
}

// Max returns the exact maximum positive sample, or 0 if empty.
func (h *Histogram) Max() float64 { return math.Float64frombits(h.max.Load()) }

// Registry is a named collection of counters and histograms. The zero
// value is ready to use. Lookups are lock-free in the steady state so
// concurrent hot paths (e.g. every RPC of a parallel fan-out) do not
// serialize on a registry mutex.
type Registry struct {
	counters   sync.Map // string -> *Counter
	histograms sync.Map // string -> *Histogram
	// memos holds caller-derived handle bundles. It is read on every RPC
	// and written once per key, so a write copies the map under memoMu and
	// a read is one atomic load and one lookup in a plain map.
	memos  atomic.Pointer[map[string]any]
	memoMu sync.Mutex
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// Attach registers c, a counter its owner keeps outside the registry (a
// layer that counts on its own hot path without a registry in hand), under
// name, so that it shows in snapshots.
func (r *Registry) Attach(name string, c *Counter) { r.counters.Store(name, c) }

// LookupCounter returns the named counter without creating it.
func (r *Registry) LookupCounter(name string) (*Counter, bool) {
	v, ok := r.counters.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*Counter), true
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if v, ok := r.histograms.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.histograms.LoadOrStore(name, &Histogram{})
	return v.(*Histogram)
}

// LookupHistogram returns the named histogram without creating it.
func (r *Registry) LookupHistogram(name string) (*Histogram, bool) {
	v, ok := r.histograms.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*Histogram), true
}

// MemoLoad returns the handle bundle cached under key, if any. Together
// with MemoStore it lets hot-path callers cache derived handle sets
// (e.g. the RPC layer's per-service counter+histogram bundle) on the
// registry itself, avoiding name concatenation and repeated lookups.
func (r *Registry) MemoLoad(key string) (any, bool) {
	if m := r.memos.Load(); m != nil {
		v, ok := (*m)[key]
		return v, ok
	}
	return nil, false
}

// MemoStore caches v under key unless another value was stored first, and
// returns the cached value.
func (r *Registry) MemoStore(key string, v any) any {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	var old map[string]any
	if m := r.memos.Load(); m != nil {
		old = *m
	}
	if actual, ok := old[key]; ok {
		return actual
	}
	m := make(map[string]any, len(old)+1)
	for k, x := range old {
		m[k] = x
	}
	m[key] = v
	r.memos.Store(&m)
	return v
}

// CounterNames returns the names of all registered counters, sorted.
func (r *Registry) CounterNames() []string {
	var names []string
	r.counters.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}

// Snapshot renders all metrics as a deterministic multi-line string,
// suitable for experiment reports.
func (r *Registry) Snapshot() string {
	var counterNames, histNames []string
	r.counters.Range(func(k, _ any) bool {
		counterNames = append(counterNames, k.(string))
		return true
	})
	r.histograms.Range(func(k, _ any) bool {
		histNames = append(histNames, k.(string))
		return true
	})
	sort.Strings(counterNames)
	sort.Strings(histNames)
	var b strings.Builder
	for _, name := range counterNames {
		c, _ := r.LookupCounter(name)
		fmt.Fprintf(&b, "counter %-40s %d\n", name, c.Value())
	}
	for _, name := range histNames {
		h := r.Histogram(name)
		fmt.Fprintf(&b, "hist    %-40s n=%d mean=%.3f p50=%.3f p99=%.3f p999=%.3f max=%.3f\n",
			name, h.Count(), h.Mean(), h.Percentile(0.5), h.Percentile(0.99), h.Percentile(0.999), h.Max())
	}
	return b.String()
}
