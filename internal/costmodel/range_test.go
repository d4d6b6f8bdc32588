package costmodel

import (
	"testing"
	"time"

	"hyperalloc/internal/mem"
)

// TestChargeRangeEquivalence pins ChargeRange(n, op) to the sum of n
// individual per-op charges for every op and the batch sizes the range
// APIs use. This is the identity the batched callers rely on for
// byte-identical ledgers.
func TestChargeRangeEquivalence(t *testing.T) {
	m := Default()
	ops := []Op{OpEPTMapBase, OpEPTUnmapBase, OpEPTMapHuge, OpEPTUnmapHuge, OpFaultBase, OpWPFault}
	for _, op := range ops {
		for _, n := range []uint64{0, 1, 2, 64, 511, 512} {
			var sum time.Duration
			for i := uint64(0); i < n; i++ {
				sum += m.OpCost(op)
			}
			if got := m.ChargeRange(n, op); got != sum {
				t.Errorf("ChargeRange(%d, op %d) = %v, per-op sum %v", n, op, got, sum)
			}
		}
	}
}

// TestChargeRangeZeroAlloc gates the batched charge every range API
// calls at zero allocations.
func TestChargeRangeZeroAlloc(t *testing.T) {
	m := Default()
	var sink time.Duration
	if avg := testing.AllocsPerRun(1000, func() {
		sink += m.ChargeRange(512, OpFaultBase)
	}); avg != 0 {
		t.Fatalf("ChargeRange(512) allocates %v per call, want 0", avg)
	}
	_ = sink
}

// TestOpCostMatchesPerFrameCharges pins the composite ops to the exact
// expressions the per-frame charge paths used, including the truncating
// bandwidth-derived populate cost.
func TestOpCostMatchesPerFrameCharges(t *testing.T) {
	m := Default()
	if got, want := m.OpCost(OpFaultBase), m.EPTFaultExit+m.EPTMapBase+m.PopulateCost(mem.PageSize); got != want {
		t.Errorf("OpFaultBase = %v, want %v", got, want)
	}
	if got, want := m.OpCost(OpWPFault), m.EPTFaultExit; got != want {
		t.Errorf("OpWPFault = %v, want %v", got, want)
	}
	// The hazard ChargeRange exists to avoid: recomputing a batch from
	// total bytes does NOT equal n per-page costs (float truncation).
	if m.PopulateCost(512*mem.PageSize) == 512*m.PopulateCost(mem.PageSize) {
		t.Log("PopulateCost happens to be linear for this model; the identity still must come from multiplication")
	}
}
