// Package telemetry is the zero-dependency observability layer of the
// repository: a metrics registry cheap enough for hot paths, trace spans
// propagated through context.Context, and HTTP exposition (Prometheus
// text format, recent-trace dumps, request middleware).
//
// Design constraints, in order:
//
//   - Recording must be allocation-free on held handles. A *Counter,
//     *Gauge or *Histogram obtained once (at construction, per route, per
//     module) records with a single atomic operation; labelled lookups
//     through a Vec pay one map read and one small key allocation and are
//     meant for per-request, not per-iteration, call sites.
//   - Everything is nil-safe. A nil *Registry hands out nil handles, and
//     every method on a nil handle is a no-op — so instrumented code never
//     branches on "is telemetry enabled" and the disabled configuration
//     costs one predictable nil check. The no-op recorder the overhead
//     benchmarks compare against is literally `var reg *Registry`.
//   - Exposition is deterministic: families sort by name, series by label
//     values, so the text format can be golden-tested byte for byte.
//
// The registry intentionally supports only the three Prometheus core
// types (counter, gauge, histogram with fixed buckets) plus func-backed
// collectors for counters another subsystem already maintains as atomics.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-global registry the cmd binaries expose. Library
// code should accept a *Registry instead of reaching for it, so tests can
// isolate their metric state.
var Default = NewRegistry()

// metricKind discriminates the supported metric types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Registry holds metric families and hands out recording handles.
// All methods are safe for concurrent use. A nil *Registry is the no-op
// recorder: every constructor returns a nil handle whose methods do
// nothing.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family: a fixed kind, label names, and the
// live series keyed by joined label values.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histogram bucket upper bounds, ascending

	mu     sync.RWMutex
	series map[string]*series

	// fn, when non-nil, makes this a func-backed single-series family
	// evaluated at snapshot time (no live series).
	fn func() float64
}

// series is one labelled time series within a family. Exactly one of the
// handle fields is non-nil, matching the family kind.
type series struct {
	values []string // label values, aligned with family.labels
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// seriesSep joins label values into map keys; label values containing it
// are rejected at lookup.
const seriesSep = "\x1f"

// validName reports whether name is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally may not contain
// colons, which we do not enforce — we never generate them).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		ch := name[i]
		switch {
		case ch >= 'a' && ch <= 'z', ch >= 'A' && ch <= 'Z', ch == '_', ch == ':':
		case ch >= '0' && ch <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// lookup returns the family for name, creating it on first registration.
// Re-registering with a different kind, label set or bucket layout is a
// programming error and panics, mirroring the Prometheus client.
func (r *Registry) lookup(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("telemetry: metric %s: invalid label name %q", name, l))
		}
	}
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.families[name]
		if !ok {
			f = &family{
				name:   name,
				help:   help,
				kind:   kind,
				labels: append([]string(nil), labels...),
				bounds: append([]float64(nil), bounds...),
				series: make(map[string]*series),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s, was %s", name, kind, f.kind))
	}
	if len(f.labels) != len(labels) || (len(labels) > 0 && !equalStrings(f.labels, labels)) {
		panic(fmt.Sprintf("telemetry: metric %s re-registered with labels %v, was %v", name, labels, f.labels))
	}
	if kind == kindHistogram && !equalFloats(f.bounds, bounds) {
		panic(fmt.Sprintf("telemetry: histogram %s re-registered with buckets %v, was %v", name, bounds, f.bounds))
	}
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get returns the series for the joined key, creating it on first use.
func (f *family) get(key string, values []string) *series {
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.bounds)
	}
	f.series[key] = s
	return s
}

func (f *family) with(values ...string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s: got %d label values for %d labels", f.name, len(values), len(f.labels)))
	}
	for _, v := range values {
		if strings.Contains(v, seriesSep) {
			panic(fmt.Sprintf("telemetry: metric %s: label value %q contains reserved separator", f.name, v))
		}
	}
	return f.get(strings.Join(values, seriesSep), values)
}

// ---- Counter ----

// Counter is a monotonically increasing count. The zero value is ready to
// use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter registers (or finds) an unlabelled counter family and returns
// its single series handle.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, nil).get("", nil).c
}

// CounterVec is a counter family with labels.
type CounterVec struct {
	f *family
}

// CounterVec registers (or finds) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.lookup(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating the
// series on first use. Hold the handle when recording in a loop.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.with(values...).c
}

// CounterFunc registers a func-backed counter family: fn is evaluated at
// snapshot/exposition time. Use it to export a count another subsystem
// already maintains. Registering the same name again replaces the
// function (last wins), so re-built fixtures can re-wire collectors.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.lookup(name, help, kindCounter, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// ---- Gauge ----

// Gauge is a value that can go up and down, stored as float64 bits. The
// zero value is ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (negative to subtract) with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge registers (or finds) an unlabelled gauge family and returns its
// single series handle.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, nil).get("", nil).g
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct {
	f *family
}

// GaugeVec registers (or finds) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.lookup(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.with(values...).g
}

// GaugeFunc registers a func-backed gauge family evaluated at snapshot
// time. Registering the same name again replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.lookup(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// ---- Histogram ----

// DefBuckets are the default latency buckets, in seconds: 0.5ms to 10s.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram counts observations in fixed buckets. Observe is two atomic
// operations (bucket increment + sum CAS) and allocates nothing. A nil
// *Histogram is a no-op.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf follows
	buckets []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// NewHistogram returns a standalone histogram over ascending bucket
// upper bounds (nil selects DefBuckets), for a caller that aggregates
// outside a Registry — a load generator's per-class latencies, say.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	checkBounds("standalone", bounds)
	return newHistogram(bounds)
}

// Merge adds o's observations into h. Both must share one bucket layout.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	if !equalFloats(h.bounds, o.bounds) {
		panic(fmt.Sprintf("telemetry: merging histograms with buckets %v and %v", h.bounds, o.bounds))
	}
	for i := range o.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	h.count.Add(o.count.Load())
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + o.Sum())
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observations:
// it finds the bucket holding rank q·Count and interpolates linearly
// between that bucket's bounds (0 below the first). An empty histogram
// reports 0; a rank in the overflow bucket reports the last bound, the
// largest value the buckets vouch for.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	return h.QuantileMax(q, h.bounds[len(h.bounds)-1])
}

// QuantileMax is Quantile for a caller that tracks the largest
// observation, max: interpolation inside the top bucket stops at max
// instead of the bucket's bound, and a rank in the overflow bucket
// reports max itself.
func (h *Histogram) QuantileMax(q, max float64) float64 {
	if h == nil {
		return 0
	}
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	var cum float64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			if i == len(h.bounds) {
				return max
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if hi > max {
				hi = max
			}
			frac := (rank - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return max
}

// checkBounds panics on unsorted or duplicate bucket bounds.
func checkBounds(name string, bounds []float64) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s: buckets not strictly ascending: %v", name, bounds))
		}
	}
}

// Histogram registers (or finds) an unlabelled histogram family with the
// given bucket upper bounds (nil selects DefBuckets) and returns its
// single series handle.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	checkBounds(name, bounds)
	return r.lookup(name, help, kindHistogram, nil, bounds).get("", nil).h
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	f *family
}

// HistogramVec registers (or finds) a labelled histogram family. nil
// bounds selects DefBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	checkBounds(name, bounds)
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, labels, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.with(values...).h
}

// ---- Snapshot ----

// Label is one name/value pair of a series.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	LE    string `json:"le"` // upper bound as rendered in exposition; "+Inf" last
	Count uint64 `json:"count"`
}

// SeriesSnapshot is the frozen state of one series.
type SeriesSnapshot struct {
	Labels []Label `json:"labels,omitempty"`
	// Value is the counter count or gauge level; unused for histograms.
	Value float64 `json:"value"`
	// Histogram fields.
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// FamilySnapshot is the frozen state of one metric family.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is the frozen state of a whole registry: families sorted by
// name, series sorted by label values — the JSON twin of the Prometheus
// exposition, embedded by the serving layer's /stats.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// Snapshot freezes the registry. Safe to call concurrently with
// recording; each atomic is read once, so a snapshot is internally
// consistent per value, not across values.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{Families: []FamilySnapshot{}}
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	snap := Snapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		snap.Families = append(snap.Families, f.snapshot())
	}
	return snap
}

func (f *family) snapshot() FamilySnapshot {
	fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.kind.String()}
	f.mu.RLock()
	if f.fn != nil {
		fn := f.fn
		f.mu.RUnlock()
		fs.Series = []SeriesSnapshot{{Value: fn()}}
		return fs
	}
	type keyed struct {
		key string
		s   *series
	}
	rows := make([]keyed, 0, len(f.series))
	for k, s := range f.series {
		rows = append(rows, keyed{k, s})
	}
	f.mu.RUnlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })

	fs.Series = make([]SeriesSnapshot, 0, len(rows))
	for _, row := range rows {
		ss := SeriesSnapshot{}
		for i, name := range f.labels {
			ss.Labels = append(ss.Labels, Label{Name: name, Value: row.s.values[i]})
		}
		switch f.kind {
		case kindCounter:
			ss.Value = float64(row.s.c.Value())
		case kindGauge:
			ss.Value = row.s.g.Value()
		case kindHistogram:
			h := row.s.h
			ss.Count = h.Count()
			ss.Sum = h.Sum()
			cum := uint64(0)
			for i := range h.buckets {
				cum += h.buckets[i].Load()
				le := "+Inf"
				if i < len(h.bounds) {
					le = formatFloat(h.bounds[i])
				}
				ss.Buckets = append(ss.Buckets, Bucket{LE: le, Count: cum})
			}
		}
		fs.Series = append(fs.Series, ss)
	}
	return fs
}
