package obs

import (
	"fmt"
	"testing"

	"hyperalloc/internal/sim"
)

// BenchmarkObsRollup measures the rollup hot path: one Observe rolling
// through a host series into its fleet parent. TestObserveZeroAlloc
// gates the same path at 0 allocs/op.
func BenchmarkObsRollup(b *testing.B) {
	p := NewPipeline(Config{Resolution: sim.Second, Window: 120})
	fleet := p.Gauge("fleet/rss_bytes", nil)
	s := p.Gauge("host0/rss_bytes", fleet)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(sim.Time(i)*sim.Time(sim.Millisecond), float64(i))
	}
}

// BenchmarkObsAlertScan measures a full rule sweep at fleet scale: 128
// hosts, each with a burn-rate and a thrash rule, plus one cascade
// rule.
func BenchmarkObsAlertScan(b *testing.B) {
	p := NewPipeline(Config{Resolution: sim.Second, Window: 120})
	for h := 0; h < 128; h++ {
		slo := p.Counter(fmt.Sprintf("host%d/slo_violations", h), nil)
		in := p.Counter(fmt.Sprintf("host%d/swap_in_bytes", h), nil)
		out := p.Counter(fmt.Sprintf("host%d/swap_out_bytes", h), nil)
		host := fmt.Sprintf("host%d", h)
		p.AddBurnRate(&BurnRateRule{Series: slo, Host: host, Budget: 1, FastN: 5, SlowN: 60, FastBurn: 14, SlowBurn: 6})
		p.AddThrash(&ThrashRule{In: in, Out: out, Host: host, MinBytes: 1 << 20, Hold: 3})
		// Below-threshold background traffic so the scan does real work
		// without emitting alerts.
		for sec := int64(0); sec < 120; sec++ {
			slo.Observe(at(sec), 1)
			out.Observe(at(sec), 1<<19)
		}
	}
	p.AddCascade(&CascadeRule{Count: 8, WindowN: 10})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Scan(at(119))
	}
}
