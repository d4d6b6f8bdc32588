package sim

import (
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v", c.Now())
	}
	c.Advance(3 * Second)
	c.Advance(500 * Millisecond)
	if got := c.Now().Seconds(); got != 3.5 {
		t.Errorf("Now = %v", got)
	}
	c.AdvanceTo(c.Now()) // same time is fine
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative advance did not panic")
			}
		}()
		c.Advance(-1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("backwards AdvanceTo did not panic")
			}
		}()
		c.AdvanceTo(0)
	}()
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * Millisecond)
	if tm.Add(500*Millisecond) != Time(2*Second) {
		t.Error("Add")
	}
	if tm.Sub(Time(Second)) != 500*Millisecond {
		t.Error("Sub")
	}
	if tm.String() != "1.500s" {
		t.Errorf("String = %q", tm.String())
	}
}

func TestRateAndDurationFor(t *testing.T) {
	d := DurationFor(1<<30, 1.0) // 1 GiB at 1 GiB/s
	if d != Second {
		t.Errorf("DurationFor = %v", d)
	}
	if r := Rate(1<<30, Second); r != 1.0 {
		t.Errorf("Rate = %v", r)
	}
	if r := Rate(1<<30, 0); r != 0 {
		t.Errorf("Rate with zero duration = %v", r)
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(Time(3*Second), "c", func() { order = append(order, 3) })
	s.At(Time(Second), "a", func() { order = append(order, 1) })
	s.At(Time(2*Second), "b", func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != Time(3*Second) {
		t.Errorf("final time %v", s.Now())
	}
}

func TestSchedulerTieBreakFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(Second), "e", func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulerLateEvents(t *testing.T) {
	// A callback that advances the clock past pending events: those run
	// late, at the current time.
	s := NewScheduler()
	var ranAt []Time
	s.At(Time(Second), "long", func() {
		s.Clock().Advance(10 * Second)
	})
	s.At(Time(2*Second), "late", func() {
		ranAt = append(ranAt, s.Now())
	})
	s.Run()
	if len(ranAt) != 1 || ranAt[0] != Time(11*Second) {
		t.Errorf("late event ran at %v", ranAt)
	}
	// Scheduling in the past clamps to now.
	e := s.At(Time(Second), "past", func() {})
	if e.e.At != s.Now() {
		t.Errorf("past event scheduled at %v, now %v", e.e.At, s.Now())
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	e := s.After(Second, "x", func() { ran = true })
	s.Cancel(e)
	s.Cancel(e)        // double cancel is a no-op
	s.Cancel(Handle{}) // zero handle is a no-op
	s.Run()
	if ran {
		t.Error("cancelled event ran")
	}
}

// TestSchedulerHandleReuse pins the generation check: a handle to a fired
// or cancelled event must not cancel the event that later reuses its
// record off the free list.
func TestSchedulerHandleReuse(t *testing.T) {
	s := NewScheduler()
	fired := s.After(Second, "a", func() {})
	s.Run()
	if fired.Pending() {
		t.Fatal("fired handle still pending")
	}
	ran := false
	fresh := s.After(Second, "b", func() { ran = true })
	if fresh.e != fired.e {
		t.Fatal("free list did not reuse the record") // the test's premise
	}
	s.Cancel(fired) // stale handle: must NOT cancel "b"
	s.Run()
	if !ran {
		t.Error("stale handle cancelled a reused event")
	}

	// Same via Cancel: cancelling bumps the generation too.
	old := s.After(Second, "c", func() {})
	s.Cancel(old)
	ran = false
	reused := s.After(Second, "d", func() { ran = true })
	if reused.e != old.e {
		t.Fatal("free list did not reuse the cancelled record")
	}
	s.Cancel(old)
	s.Run()
	if !ran {
		t.Error("stale cancelled handle cancelled a reused event")
	}
}

// TestSchedulerSteadyStateZeroAlloc gates the chained-After hot path of
// BenchmarkSchedulerSteadyState at zero allocations: on a warm scheduler
// Step recycles the record before the callback runs, so the reschedule
// pops the same record straight back off the free list.
func TestSchedulerSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	var tick func()
	tick = func() { s.After(Millisecond, "tick", tick) }
	s.After(Millisecond, "tick", tick)
	for i := 0; i < 64; i++ { // warm the free list and heap storage
		s.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() { s.Step() }); avg != 0 {
		t.Fatalf("steady-state Step allocates %v per op, want 0", avg)
	}
}

// TestSchedulerCancelHeavyZeroAlloc gates the cancel-dominated pattern
// (timers armed and cancelled before they fire, over a fleet-sized
// standing queue) at zero allocations once the free list is warm.
func TestSchedulerCancelHeavyZeroAlloc(t *testing.T) {
	s := NewScheduler()
	noop := func() {}
	for i := 0; i < 4096; i++ {
		s.After(Duration(i+1)*Second, "standing", noop)
	}
	handles := make([]Handle, 64)
	cycle := func() {
		for j := range handles {
			handles[j] = s.After(Duration(j+1)*Millisecond, "victim", noop)
		}
		for _, h := range handles {
			s.Cancel(h)
		}
	}
	cycle() // warm the free list
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("64 After + 64 Cancel allocate %v per cycle, want 0", avg)
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var count int
	s.Every(Second, "tick", func() bool {
		count++
		return count < 100
	})
	s.RunUntil(Time(5*Second + 500*Millisecond))
	if count != 5 {
		t.Errorf("ticks = %d", count)
	}
	if s.Now() != Time(5*Second+500*Millisecond) {
		t.Errorf("clock = %v", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
}

func TestEveryStops(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.Every(Second, "tick", func() bool {
		count++
		return count < 3
	})
	s.Run()
	if count != 3 {
		t.Errorf("count = %d", count)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(7).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/100", same)
	}
}

func TestRNGStability(t *testing.T) {
	// The stream must be stable across releases: benchmark seeds depend
	// on it. Golden values for seed 42.
	r := NewRNG(42)
	want := []uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("value %d = %#x, want %#x (stream changed!)", i, got, w)
		}
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := r.Range(5, 6); v < 5 || v >= 6 {
			t.Fatalf("Range out of range: %v", v)
		}
		if v := r.DurationRange(Second, 2*Second); v < Second || v >= 2*Second {
			t.Fatalf("DurationRange out of range: %v", v)
		}
	}
	if r.DurationRange(Second, Second) != Second {
		t.Error("degenerate DurationRange")
	}
	func() {
		defer func() { recover() }()
		r.Intn(0)
		t.Error("Intn(0) did not panic")
	}()
}

func TestRNGNormal(t *testing.T) {
	r := NewRNG(3)
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Errorf("mean = %v", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Errorf("variance = %v", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(5)
	child := r.Fork()
	if r.Uint64() == child.Uint64() {
		t.Error("fork produced identical stream")
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(9)
	buckets := make([]int, 16)
	const n = 64000
	for i := 0; i < n; i++ {
		buckets[r.Intn(16)]++
	}
	for i, b := range buckets {
		if b < n/16*8/10 || b > n/16*12/10 {
			t.Errorf("bucket %d = %d, want ~%d", i, b, n/16)
		}
	}
}
