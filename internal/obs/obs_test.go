package obs

import (
	"testing"

	"hyperalloc/internal/sim"
)

func at(sec int64) sim.Time { return sim.Time(sec * int64(sim.Second)) }

// TestRollupBuckets pins the downsampling: observations within one
// resolution share a bucket (count/sum/min/max/last), later buckets are
// independent, and empty buckets read as dead.
func TestRollupBuckets(t *testing.T) {
	p := NewPipeline(Config{Resolution: sim.Second, Window: 8})
	s := p.Gauge("host0/rss", nil)
	s.Observe(at(3), 10)
	s.Observe(at(3)+sim.Time(sim.Millisecond), 4)
	s.Observe(at(3)+sim.Time(2*sim.Millisecond), 7)
	s.Observe(at(5), 100)

	st, ok := s.Bucket(3)
	if !ok || st.Count != 3 || st.Sum != 21 || st.Min != 4 || st.Max != 10 || st.Last != 7 {
		t.Fatalf("bucket 3 = %+v ok=%v, want count 3 sum 21 min 4 max 10 last 7", st, ok)
	}
	if _, ok := s.Bucket(4); ok {
		t.Fatal("empty bucket 4 reads as live")
	}
	if st, ok := s.Bucket(5); !ok || st.Last != 100 {
		t.Fatalf("bucket 5 = %+v ok=%v, want last 100", st, ok)
	}
	if st, ok := s.Latest(7); !ok || st.Last != 100 {
		t.Fatalf("Latest(7) = %+v ok=%v, want bucket 5's last 100", st, ok)
	}
	if got := s.WindowSum(5, 3); got != 121 {
		t.Fatalf("WindowSum(5,3) = %v, want 121 (buckets 3..5)", got)
	}
}

// TestRollupRingEviction pins the bounded-memory behaviour: a slot
// re-entered one window later holds only the new epoch's data, and the
// aged-out bucket is dead — retention is exactly Window buckets with no
// allocation growth.
func TestRollupRingEviction(t *testing.T) {
	p := NewPipeline(Config{Resolution: sim.Second, Window: 4})
	s := p.Counter("c", nil)
	s.Observe(at(1), 5)
	s.Observe(at(5), 7) // same slot (5 % 4 == 1), later window
	if _, ok := s.Bucket(1); ok {
		t.Fatal("evicted bucket 1 still reads as live")
	}
	st, ok := s.Bucket(5)
	if !ok || st.Sum != 7 || st.Count != 1 {
		t.Fatalf("bucket 5 = %+v ok=%v, want fresh sum 7", st, ok)
	}
	// WindowSum over more buckets than the ring clamps to the window.
	if got := s.WindowSum(5, 100); got != 7 {
		t.Fatalf("WindowSum clamp = %v, want 7", got)
	}
}

// TestParentChainAggregation pins host → fleet rollup: one Observe on a
// child lands in every ancestor's ring too.
func TestParentChainAggregation(t *testing.T) {
	p := NewPipeline(Config{Window: 4})
	fleet := p.Gauge("fleet/rss", nil)
	h0 := p.Gauge("host0/rss", fleet)
	h1 := p.Gauge("host1/rss", fleet)
	h0.Observe(at(2), 10)
	h1.Observe(at(2), 32)
	st, ok := fleet.Bucket(2)
	if !ok || st.Count != 2 || st.Sum != 42 || st.Min != 10 || st.Max != 32 {
		t.Fatalf("fleet bucket = %+v ok=%v, want count 2 sum 42 min 10 max 32", st, ok)
	}
	if st, _ := h0.Bucket(2); st.Count != 1 {
		t.Fatalf("host bucket polluted: %+v", st)
	}
}

// TestMemoryBound pins the O(series × window) footprint in bucket
// units, independent of how many observations flow through.
func TestMemoryBound(t *testing.T) {
	const window = 16
	p := NewPipeline(Config{Window: window})
	fleet := p.Gauge("fleet/rss", nil)
	for i := 0; i < 10; i++ {
		s := p.Gauge("host/rss/"+string(rune('a'+i)), fleet)
		for sec := int64(0); sec < 1000; sec++ {
			s.Observe(at(sec), float64(sec))
		}
	}
	if got, want := p.BucketCount(), 11*window; got != want {
		t.Fatalf("BucketCount = %d, want %d (11 series × %d buckets)", got, want, window)
	}
	if got := p.SeriesCount(); got != 11 {
		t.Fatalf("SeriesCount = %d, want 11", got)
	}
}

// TestObserveZeroAlloc gates the rollup hot path (a host series rolling
// into its fleet parent) at zero allocations, the same discipline as
// the scheduler's TestSchedulerSteadyStateZeroAlloc.
func TestObserveZeroAlloc(t *testing.T) {
	p := NewPipeline(Config{Window: 32})
	fleet := p.Gauge("fleet/rss", nil)
	s := p.Gauge("host0/rss", fleet)
	var sec int64
	if avg := testing.AllocsPerRun(1000, func() {
		sec++
		s.Observe(at(sec), float64(sec))
	}); avg != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", avg)
	}
}

// TestSeriesIdempotentAndSorted pins creation semantics: re-requesting
// a name returns the same series, and AllSeries is name-sorted.
func TestSeriesIdempotentAndSorted(t *testing.T) {
	p := NewPipeline(Config{})
	b := p.Gauge("b", nil)
	a := p.Counter("a", nil)
	if p.Gauge("b", nil) != b {
		t.Fatal("re-request returned a different series")
	}
	all := p.AllSeries()
	if len(all) != 2 || all[0] != a || all[1] != b {
		t.Fatalf("AllSeries not name-sorted: %v", []string{all[0].Name(), all[1].Name()})
	}
}

// TestNilSafety: a nil pipeline and nil series are valid and disabled,
// like nil trace instruments.
func TestNilSafety(t *testing.T) {
	var p *Pipeline
	s := p.Gauge("x", nil)
	if s != nil {
		t.Fatal("nil pipeline returned a live series")
	}
	s.Observe(at(1), 1) // must not panic
	if _, ok := s.Bucket(1); ok {
		t.Fatal("nil series has a live bucket")
	}
	if p.BucketCount() != 0 || p.SeriesCount() != 0 || p.Index(at(5)) != 0 {
		t.Fatal("nil pipeline not inert")
	}
	p.Scan(at(1))
	p.NoteEvacuation(at(1), "vm", "host")
	p.ScanStalls(at(1), []FlightInfo{{VM: "v"}}, sim.Second)
	if p.Alerts() != nil {
		t.Fatal("nil pipeline has alerts")
	}
}
