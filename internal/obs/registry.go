// Package obs is WOHA's zero-dependency runtime observability layer: atomic
// counters, gauges, and log-scale histograms behind a Registry with
// Prometheus text-format exposition, a bounded structured event stream, and
// a Perfetto/Chrome trace-event exporter.
//
// The package exists so the framework's central claim — per-heartbeat
// scheduling stays cheap as the queue grows — can be observed on a running
// cluster instead of reconstructed from finished runs (internal/metrics
// post-processes; obs measures live).
//
// Everything is nil-safe: a nil *Registry hands out nil instruments, and
// every instrument method no-ops on a nil receiver, so a disabled
// installation costs exactly one nil check on the hot path (see
// BenchmarkHeartbeatBare). See OBSERVABILITY.md at the repository root for
// the metric and event catalogue.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels attaches dimensions to a metric (e.g. policy="WOHA-LPF"). The label
// set is fixed at registration; series with the same name but different
// labels are distinct instruments within one family.
type Labels map[string]string

// render produces the canonical {k="v",...} suffix, keys sorted.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// renderWith is render with one extra pair appended (used for the le bucket
// label of histograms).
func renderWith(rendered, key, val string) string {
	pair := key + `="` + escapeLabel(val) + `"`
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// metric is one registered series.
type metric interface {
	labels() string
	// expose writes the metric's sample lines (name + rendered labels).
	expose(w io.Writer, name string) error
}

// family groups all series sharing one metric name.
type family struct {
	name    string
	help    string
	typ     string // counter, gauge, histogram
	series  []metric
	byLabel map[string]metric
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. A nil *Registry is a valid disabled registry: every
// lookup returns a nil instrument whose methods no-op.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register returns d's series for labels, creating family and series on
// first sight; nil on a nil registry. It panics when a name is reused with
// another type — that is a programming error, not a runtime condition.
func (r *Registry) register(d *decl, labels Labels) metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[d.name]
	if f == nil {
		f = &family{name: d.name, help: d.help, typ: d.typ, byLabel: make(map[string]metric)}
		r.byName[d.name] = f
		r.families = append(r.families, f)
	}
	if f.typ != d.typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", d.name, f.typ, d.typ))
	}
	lbl := labels.render()
	if m, ok := f.byLabel[lbl]; ok {
		return m
	}
	var m metric
	switch d.typ {
	case "counter":
		m = &Counter{lbl: lbl}
	case "gauge":
		m = &Gauge{lbl: lbl}
	default:
		m = newHistogram(lbl, d.buckets)
	}
	f.byLabel[lbl] = m
	f.series = append(f.series, m)
	return m
}

// Counter returns the registered counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, help, nil)
}

// CounterWith is Counter with a label set.
func (r *Registry) CounterWith(name, help string, labels Labels) *Counter {
	return handle[Counter](r, &decl{name: name, help: help, typ: "counter"}, labels)
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeWith(name, help, nil)
}

// GaugeWith is Gauge with a label set.
func (r *Registry) GaugeWith(name, help string, labels Labels) *Gauge {
	return handle[Gauge](r, &decl{name: name, help: help, typ: "gauge"}, labels)
}

// Histogram returns the registered histogram, creating it with the given
// bucket upper bounds (ascending) on first use. An existing histogram keeps
// its original buckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramWith(name, help, nil, buckets)
}

// HistogramWith is Histogram with a label set.
func (r *Registry) HistogramWith(name, help string, labels Labels, buckets []float64) *Histogram {
	return handle[Histogram](r, &decl{name: name, help: help, typ: "histogram", buckets: buckets}, labels)
}

// WriteTo renders every registered family in the Prometheus text exposition
// format (version 0.0.4), families in registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	cw := &countWriter{w: w}
	for _, f := range fams {
		if _, err := fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return cw.n, err
		}
		r.mu.Lock()
		series := make([]metric, len(f.series))
		copy(series, f.series)
		r.mu.Unlock()
		for _, m := range series {
			if err := m.expose(cw, f.name); err != nil {
				return cw.n, err
			}
		}
	}
	return cw.n, nil
}

// Handler returns an http.Handler serving the exposition, ready to mount on
// a mux (conventionally at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v   atomic.Int64
	lbl string
}

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored; counters only go up). Safe on a
// nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) labels() string { return c.lbl }

func (c *Counter) expose(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, c.lbl, c.v.Load())
	return err
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v   atomic.Int64
	lbl string
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add applies a delta. Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) labels() string { return g.lbl }

func (g *Gauge) expose(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, g.lbl, g.v.Load())
	return err
}

// Histogram is a fixed-bucket histogram with atomic bucket counters. Bucket
// bounds are upper bounds; an implicit +Inf bucket catches the tail. Observe
// performs no allocation, so histograms are safe on hot paths.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomicFloat
	lbl    string
}

func newHistogram(lbl string, buckets []float64) *Histogram {
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending: %v", buckets))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1), lbl: lbl}
}

// Observe records one sample. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveDuration records d in seconds. Safe on a nil receiver.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

func (h *Histogram) labels() string { return h.lbl }

func (h *Histogram) expose(w io.Writer, name string) error {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		lbl := renderWith(h.lbl, "le", strconv.FormatFloat(b, 'g', -1, 64))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, lbl, cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderWith(h.lbl, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, h.lbl,
		strconv.FormatFloat(h.sum.load(), 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, h.lbl, h.count.Load())
	return err
}

// atomicFloat accumulates a float64 with a CAS loop over its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// ExpBuckets returns n exponentially spaced bucket bounds starting at start,
// each factor times the last — the log-scale buckets every obs histogram
// uses, so tail latencies keep resolution without per-sample allocation.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%v, %v, %d): want start > 0, factor > 1, n >= 1", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Default bucket layouts.
var (
	// DurationBuckets spans 1µs to ~8.4s in powers of two — wide enough for
	// both a sub-microsecond DSL head read and a multi-second naive rescan.
	DurationBuckets = ExpBuckets(1e-6, 2, 24)
	// CountBuckets spans 1 to 32768 in powers of two (assignments per
	// heartbeat, queue sizes).
	CountBuckets = ExpBuckets(1, 2, 16)
	// IterBuckets spans 1 to 128 (binary-search iteration counts).
	IterBuckets = ExpBuckets(1, 2, 8)
)
