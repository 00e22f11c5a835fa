// Package metrics is a small, dependency-free instrumentation library
// for the serving layer: atomic counters, gauges and fixed-bucket
// histograms collected in a Registry and exported two ways — Prometheus
// text exposition (GET /metrics) and expvar (GET /debug/vars). Hot-path
// updates are single atomic operations; the registry lock is taken only
// at registration and export time.
package metrics

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric at registration.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (non-negative; negative deltas are ignored to keep the
// counter monotone).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative-style buckets and
// tracks their sum, Prometheus-histogram compatible. Observe is a bucket
// search plus two atomic updates.
type Histogram struct {
	// bounds are the inclusive upper bounds of each finite bucket,
	// ascending; an implicit +Inf bucket follows.
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1, non-cumulative per bucket
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts
// by linear interpolation inside the containing bucket, the usual
// histogram_quantile estimate. It returns 0 when nothing was observed;
// observations in the +Inf bucket clamp to the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n < rank || n == 0 {
			cum += n
			continue
		}
		if i >= len(h.bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*(rank-cum)/n
	}
	return h.bounds[len(h.bounds)-1]
}

// DefLatencyBuckets spans 10µs to 10s, exponentially, a fit for the
// serving layer's request latencies (cache hits are tens of µs, cold
// 20x20 enumerations tens of ms).
func DefLatencyBuckets() []float64 {
	return []float64{
		1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// kind tags a registered metric for TYPE lines.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// entry is one registered metric instance. Counters and gauges are
// read through counter or gauge at export time, so a series can be a
// live view of a value kept elsewhere.
type entry struct {
	name    string // family name, e.g. "heteromixd_requests_total"
	help    string
	kind    kind
	labels  []Label
	counter func() uint64
	gauge   func() int64
	h       *Histogram
}

// Registry holds registered metrics in registration order.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// NewCounter registers and returns a counter. Multiple registrations may
// share a family name with distinct labels; help is taken from the first.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.NewCounterFunc(name, help, c.Value, labels...)
	return c
}

// NewCounterFunc registers a counter whose value is read from f at
// export time, for a monotone count kept by another subsystem (e.g. a
// cache's own statistics). f must be safe for concurrent use.
func (r *Registry) NewCounterFunc(name, help string, f func() uint64, labels ...Label) {
	r.add(&entry{name: name, help: help, kind: kindCounter, labels: labels, counter: f})
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.NewGaugeFunc(name, help, g.Value, labels...)
	return g
}

// NewGaugeFunc registers a gauge whose value is read from f at export
// time. f must be safe for concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, f func() int64, labels ...Label) {
	r.add(&entry{name: name, help: help, kind: kindGauge, labels: labels, gauge: f})
}

// NewHistogram registers and returns a histogram with the given finite
// bucket bounds (ascending; an implicit +Inf bucket is added).
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
	r.add(&entry{name: name, help: help, kind: kindHistogram, labels: labels, h: h})
	return h
}

func (r *Registry) add(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, e)
}

// labelString renders {k="v",...} with extra appended, empty when there
// are no labels at all.
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatValue renders a float the way Prometheus text exposition expects.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus writes every metric in text exposition format: one
// HELP/TYPE header per family (first registration wins), then one sample
// line per instance.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()

	seen := map[string]bool{}
	for _, e := range entries {
		if !seen[e.name] {
			seen[e.name] = true
			typ := map[kind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}[e.kind]
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", e.name, e.help, e.name, typ)
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s%s %d\n", e.name, labelString(e.labels), e.counter())
		case kindGauge:
			fmt.Fprintf(w, "%s%s %d\n", e.name, labelString(e.labels), e.gauge())
		case kindHistogram:
			cum := uint64(0)
			for i, b := range e.h.bounds {
				cum += e.h.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", e.name,
					labelString(e.labels, Label{"le", formatValue(b)}), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", e.name,
				labelString(e.labels, Label{"le", "+Inf"}), e.h.Count())
			fmt.Fprintf(w, "%s_sum%s %s\n", e.name, labelString(e.labels), formatValue(e.h.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", e.name, labelString(e.labels), e.h.Count())
		}
	}
}

// Handler serves the Prometheus text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// publishMu serializes expvar publication, which panics on duplicates.
var publishMu sync.Mutex

// Expvar publishes the registry's live Snapshot under the given expvar
// name (visible on GET /debug/vars). Publishing the same name twice is a
// no-op — expvar names are process-global, and tests build registries
// repeatedly — so after a replacement registry publishes, the first one
// wins; use distinct names for genuinely distinct registries.
func (r *Registry) Expvar(name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// Snapshot returns every metric's current value keyed by name+labels —
// histograms expand to _count/_sum/_p50/_p99 — for the expvar export and
// for tests.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()

	out := make(map[string]float64, len(entries))
	for _, e := range entries {
		key := e.name + labelString(e.labels)
		switch e.kind {
		case kindCounter:
			out[key] = float64(e.counter())
		case kindGauge:
			out[key] = float64(e.gauge())
		case kindHistogram:
			out[key+"_count"] = float64(e.h.Count())
			out[key+"_sum"] = e.h.Sum()
			out[key+"_p50"] = e.h.Quantile(0.5)
			out[key+"_p99"] = e.h.Quantile(0.99)
		}
	}
	return out
}
