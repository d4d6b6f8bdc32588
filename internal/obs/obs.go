// Package obs is the fleet-scale observability pipeline: bounded-memory
// streaming rollups, deterministic head-sampling for traces, SLO
// burn-rate alerting, and self-contained renderers (Prometheus text and
// a single-file HTML dashboard).
//
// The design constraint is the same one the rest of the repository lives
// under (DESIGN.md §13): observing a run must not change it. Everything
// here is keyed on simulated time, touches no RNG, charges no simulated
// time, and is fed only from coordinator barriers — so a run with the
// pipeline attached produces byte-identical workload results and traces
// to a run without it, at any `-parallel` worker count
// (internal/workload/obs_identity_test.go pins this).
//
// Memory is bounded by construction: every Series owns a fixed-width
// ring of Window buckets, each Resolution of simulated time wide, and
// buckets are reset lazily when their slot is re-entered in a later
// window — total footprint O(series × window) regardless of run length.
// Per-VM signals are summed into per-host series by the observer (VMs
// migrate, so a static parent chain would mis-attribute them); per-host
// series chain to fleet series via parents, so one Observe call rolls a
// sample up the host → fleet hierarchy with zero allocations on the
// steady-state path (TestObserveZeroAlloc gates this at 0 allocs/op).
package obs

import (
	"sort"

	"hyperalloc/internal/sim"
)

// Config parameterizes a Pipeline.
type Config struct {
	// Resolution is the rollup bucket width in simulated time
	// (default 1s — the cluster's default epoch length).
	Resolution sim.Duration
	// Window is the ring length in buckets: how much history every
	// series retains (default 120 buckets = 2 simulated minutes at the
	// default resolution).
	Window int
}

func (c Config) withDefaults() Config {
	if c.Resolution == 0 {
		c.Resolution = sim.Second
	}
	if c.Window == 0 {
		c.Window = 120
	}
	return c
}

// Kind classifies a series for rendering: a Gauge renders its last
// observation per bucket, a Counter renders the per-bucket sum of the
// deltas fed into it.
type Kind uint8

// Series kinds.
const (
	Gauge Kind = iota
	Counter
)

func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// bucket is one fixed-width rollup slot. stamp holds bucketIndex+1 so
// the zero value means "never written"; a stale stamp means the slot's
// previous tenant aged out of the window and the slot resets lazily on
// next write — no background sweeper, no allocation.
type bucket struct {
	stamp int64
	count uint64
	sum   float64
	min   float64
	max   float64
	last  float64
}

// BucketStat is the read-side view of one rollup bucket.
type BucketStat struct {
	Count uint64
	Sum   float64
	Min   float64
	Max   float64
	Last  float64
}

// Series is one named rollup stream. Observations downsample into
// fixed-width time buckets; an optional parent receives every
// observation too, forming the per-host → fleet aggregation chain.
// A nil *Series is valid and disabled (Observe no-ops), mirroring the
// trace package's nil-instrument discipline.
type Series struct {
	p      *Pipeline
	name   string
	kind   Kind
	parent *Series
	ring   []bucket
}

// Name returns the series name ("" for nil).
func (s *Series) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Kind returns the series kind.
func (s *Series) Kind() Kind {
	if s == nil {
		return Gauge
	}
	return s.kind
}

// Observe rolls one sample into the bucket covering t, then up the
// parent chain. Zero allocations: the ring is pre-sized and stale slots
// reset in place. Nil-safe.
func (s *Series) Observe(t sim.Time, v float64) {
	for cur := s; cur != nil; cur = cur.parent {
		idx := cur.p.Index(t)
		b := &cur.ring[int(idx%int64(len(cur.ring)))]
		if b.stamp != idx+1 {
			*b = bucket{stamp: idx + 1}
		}
		if b.count == 0 || v < b.min {
			b.min = v
		}
		if b.count == 0 || v > b.max {
			b.max = v
		}
		b.count++
		b.sum += v
		b.last = v
	}
}

// Bucket returns the rollup stats for bucket index idx, and whether that
// bucket holds live data (false once it ages out of the window or was
// never written).
func (s *Series) Bucket(idx int64) (BucketStat, bool) {
	if s == nil || idx < 0 {
		return BucketStat{}, false
	}
	b := s.ring[int(idx%int64(len(s.ring)))]
	if b.stamp != idx+1 {
		return BucketStat{}, false
	}
	return BucketStat{Count: b.count, Sum: b.sum, Min: b.min, Max: b.max, Last: b.last}, true
}

// Latest returns the most recent live bucket at or before endIdx within
// the retained window (ok=false when the whole window is empty).
func (s *Series) Latest(endIdx int64) (BucketStat, bool) {
	if s == nil {
		return BucketStat{}, false
	}
	for i := endIdx; i > endIdx-int64(len(s.ring)) && i >= 0; i-- {
		if st, ok := s.Bucket(i); ok {
			return st, ok
		}
	}
	return BucketStat{}, false
}

// WindowSum sums bucket sums over the n buckets ending at endIdx
// (inclusive), clamped to the retained window. For Counter series fed
// with deltas this is the windowed rate numerator the burn-rate rules
// divide by their budget.
func (s *Series) WindowSum(endIdx int64, n int) float64 {
	if s == nil {
		return 0
	}
	if n > len(s.ring) {
		n = len(s.ring)
	}
	var sum float64
	for i := endIdx - int64(n) + 1; i <= endIdx; i++ {
		if i < 0 {
			continue
		}
		b := s.ring[int(i%int64(len(s.ring)))]
		if b.stamp == i+1 {
			sum += b.sum
		}
	}
	return sum
}

// Pipeline owns the rollup series, the alert rules, and the emitted
// alerts for one run. It is coordinator-side state: feed it only from
// epoch barriers or workload step loops, never from inside a host's
// event loop. A nil *Pipeline is valid and disabled.
type Pipeline struct {
	cfg     Config
	byName  map[string]*Series
	ordered []*Series // sorted by name, maintained on insert

	burn    []*BurnRateRule
	thrash  []*ThrashRule
	cascade []*CascadeRule

	evacs      []evacNote
	stallFired map[stallKey]bool
	alerts     []Alert
}

// NewPipeline builds an empty pipeline.
func NewPipeline(cfg Config) *Pipeline {
	return &Pipeline{
		cfg:        cfg.withDefaults(),
		byName:     make(map[string]*Series),
		stallFired: make(map[stallKey]bool),
	}
}

// Config returns the pipeline's effective (defaulted) configuration.
func (p *Pipeline) Config() Config {
	if p == nil {
		return Config{}.withDefaults()
	}
	return p.cfg
}

// Index maps a simulated timestamp to its bucket index.
func (p *Pipeline) Index(t sim.Time) int64 {
	if p == nil {
		return 0
	}
	return int64(t) / int64(p.cfg.Resolution)
}

// Series returns the named series, creating it with the given kind and
// parent on first use. The kind and parent of an existing series are
// not changed. Nil-safe: a nil pipeline returns a nil (disabled) series.
func (p *Pipeline) Series(name string, kind Kind, parent *Series) *Series {
	if p == nil {
		return nil
	}
	if s, ok := p.byName[name]; ok {
		return s
	}
	s := &Series{p: p, name: name, kind: kind, parent: parent, ring: make([]bucket, p.cfg.Window)}
	p.byName[name] = s
	i := sort.Search(len(p.ordered), func(i int) bool { return p.ordered[i].name >= name })
	p.ordered = append(p.ordered, nil)
	copy(p.ordered[i+1:], p.ordered[i:])
	p.ordered[i] = s
	return s
}

// Gauge returns the named gauge series (see Series).
func (p *Pipeline) Gauge(name string, parent *Series) *Series {
	return p.Series(name, Gauge, parent)
}

// Counter returns the named counter series (see Series).
func (p *Pipeline) Counter(name string, parent *Series) *Series {
	return p.Series(name, Counter, parent)
}

// AllSeries returns the series sorted by name (renderers iterate this
// for byte-stable output).
func (p *Pipeline) AllSeries() []*Series {
	if p == nil {
		return nil
	}
	return append([]*Series(nil), p.ordered...)
}

// SeriesCount returns the number of series.
func (p *Pipeline) SeriesCount() int {
	if p == nil {
		return 0
	}
	return len(p.ordered)
}

// BucketCount returns the total number of rollup buckets held — the
// pipeline's memory footprint in units of fixed-size bucket structs.
// The fleet-memory-cap test asserts this stays O(series × window) for a
// 128-host run.
func (p *Pipeline) BucketCount() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, s := range p.ordered {
		n += len(s.ring)
	}
	return n
}
