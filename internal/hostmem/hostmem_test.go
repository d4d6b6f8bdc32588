package hostmem

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func adjust(t *testing.T, p *Pool, vm string, delta int64) uint64 {
	t.Helper()
	io, err := p.Adjust(vm, delta)
	if err != nil {
		t.Fatalf("Adjust(%s, %d): %v", vm, delta, err)
	}
	return io.Bytes()
}

func TestAdjustAndPeak(t *testing.T) {
	p := NewPool(0)
	adjust(t, p, "a", 100)
	adjust(t, p, "b", 200)
	if p.Total() != 300 || p.Peak() != 300 {
		t.Errorf("total %d peak %d", p.Total(), p.Peak())
	}
	adjust(t, p, "a", -50)
	if p.Total() != 250 || p.Peak() != 300 {
		t.Errorf("after release: total %d peak %d", p.Total(), p.Peak())
	}
	if p.RSS("a") != 50 || p.RSS("b") != 200 {
		t.Error("per-VM RSS wrong")
	}
	if p.RSS("nonesuch") != 0 {
		t.Error("unknown VM has RSS")
	}
}

func TestOverRelease(t *testing.T) {
	p := NewPool(0)
	adjust(t, p, "a", 10)
	if _, err := p.Adjust("a", -20); err == nil {
		t.Error("over-release accepted")
	}
	if p.Total() != 10 {
		t.Error("failed adjust changed state")
	}
}

func TestCapacitySwapsOut(t *testing.T) {
	p := NewPool(100)
	if p.Capacity() != 100 {
		t.Error("capacity")
	}
	adjust(t, p, "a", 80)
	// b's growth overcommits the host: the largest-RSS VM (a) gets
	// swapped out to make room.
	sw := adjust(t, p, "b", 30)
	if sw != 10 {
		t.Errorf("swap on overcommit = %d, want 10", sw)
	}
	if p.Total() != 100 {
		t.Errorf("total = %d, want at capacity", p.Total())
	}
	if p.Swapped("a") != 10 || p.RSS("a") != 70 {
		t.Errorf("victim state: rss %d swapped %d", p.RSS("a"), p.Swapped("a"))
	}
	if p.TotalSwapped() != 10 || p.SwapOutBytes != 10 {
		t.Errorf("swap accounting: %d / %d", p.TotalSwapped(), p.SwapOutBytes)
	}
	// The victim's next release cancels its swap debt first.
	adjust(t, p, "a", -10)
	if p.Swapped("a") != 0 || p.RSS("a") != 70 {
		t.Errorf("after release: rss %d swapped %d", p.RSS("a"), p.Swapped("a"))
	}
}

func TestSwapVictimIsLargestRSS(t *testing.T) {
	p := NewPool(100)
	adjust(t, p, "small", 20)
	adjust(t, p, "big", 70)
	adjust(t, p, "newcomer", 30)
	if p.Swapped("big") == 0 {
		t.Error("largest-RSS VM was not the swap victim")
	}
	if p.Swapped("small") != 0 {
		t.Error("small VM swapped before the big one")
	}
}

func TestSwapInFaultsDebtBackIn(t *testing.T) {
	p := NewPool(100)
	adjust(t, p, "a", 80)
	adjust(t, p, "b", 30) // a loses 10 to swap
	if p.Swapped("a") != 10 {
		t.Fatalf("setup: swapped(a) = %d", p.Swapped("a"))
	}
	// a touches memory again: swap-in is paced by the touch volume scaled
	// by a's swapped fraction — touching 40 bytes with 10 of 80 on swap
	// faults 40·10/80 = 5 back in, which evicts 5 from b on the full
	// host, charging a for 5 out + 5 in = 10 bytes of IO.
	io, err := p.SwapIn("a", 40)
	if err != nil {
		t.Fatal(err)
	}
	if sw := io.Bytes(); sw != 10 {
		t.Errorf("swap IO = %d, want 10", sw)
	}
	if p.Swapped("a") != 5 || p.RSS("a") != 75 {
		t.Errorf("a after swap-in: rss %d swapped %d", p.RSS("a"), p.Swapped("a"))
	}
	if p.Swapped("b") != 5 || p.RSS("b") != 25 {
		t.Errorf("b after eviction: rss %d swapped %d", p.RSS("b"), p.Swapped("b"))
	}
	if p.SwapInBytes != 5 || p.SwapOutBytes != 15 {
		t.Errorf("swap traffic: in %d out %d", p.SwapInBytes, p.SwapOutBytes)
	}
	if p.Total() != 100 {
		t.Errorf("total = %d, want at capacity", p.Total())
	}
	// Draining the rest: a touch far larger than the debt only faults the
	// remaining 5, and with headroom (b shrank) no further eviction.
	adjust(t, p, "b", -20)
	io, err = p.SwapIn("a", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if io.Bytes() != 5 || p.Swapped("a") != 0 || p.RSS("a") != 80 {
		t.Errorf("drain: io %d rss %d swapped %d", io.Bytes(), p.RSS("a"), p.Swapped("a"))
	}
	// No debt: SwapIn is a free no-op.
	io, err = p.SwapIn("a", 1000)
	if err != nil || io.Bytes() != 0 {
		t.Errorf("no-debt SwapIn: io %d err %v", io.Bytes(), err)
	}
}

func TestFaultingVMIsSparedFromEviction(t *testing.T) {
	p := NewPool(100)
	adjust(t, p, "big", 90)
	// big itself overcommits: with no other VM resident it is its own
	// victim (the pre-swap-in fallback).
	adjust(t, p, "big", 20)
	if p.Swapped("big") != 10 {
		t.Errorf("solo victim: swapped %d, want 10", p.Swapped("big"))
	}
	// With another VM resident, the faulter keeps its (hot) pages even
	// though it has the larger RSS.
	adjust(t, p, "small", 30)
	if p.Swapped("small") != 0 {
		t.Errorf("faulter was evicted: swapped %d", p.Swapped("small"))
	}
	if p.Swapped("big") != 40 {
		t.Errorf("resident VM not evicted: swapped %d", p.Swapped("big"))
	}
}

func TestEvictionTieBreaksOnName(t *testing.T) {
	p := NewPool(100)
	adjust(t, p, "zeta", 50)
	adjust(t, p, "alpha", 50)
	adjust(t, p, "newcomer", 10)
	if p.Swapped("alpha") != 10 || p.Swapped("zeta") != 0 {
		t.Errorf("tie-break: alpha %d zeta %d, want 10/0",
			p.Swapped("alpha"), p.Swapped("zeta"))
	}
}

// snapshot captures the pool's complete observable state for unchanged-
// after-failure assertions.
func snapshot(p *Pool) string {
	s := fmt.Sprintf("total=%d peak=%d out=%d in=%d", p.Total(), p.Peak(), p.SwapOutBytes, p.SwapInBytes)
	for _, vm := range p.VMs() {
		s += fmt.Sprintf(" %s:rss=%d,sw=%d", vm, p.RSS(vm), p.Swapped(vm))
	}
	return s
}

// A grow that cannot be satisfied even by swapping out every resident
// byte must fail atomically. Before the fix, swapOut had already mutated
// rss/swapped/total/SwapOutBytes when the error returned.
func TestFailedAdjustLeavesPoolUnchanged(t *testing.T) {
	p := NewPool(100)
	adjust(t, p, "a", 60)
	adjust(t, p, "b", 40)
	before := snapshot(p)
	// need = 100+150-100 = 150 > 100 resident: infeasible.
	if _, err := p.Adjust("b", 150); err == nil {
		t.Fatal("infeasible grow accepted")
	}
	if got := snapshot(p); got != before {
		t.Errorf("failed Adjust mutated the pool:\n  before %s\n  after  %s", before, got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Same for the release direction: an over-release with swap debt present
// must not cancel any of the debt before erroring out.
func TestFailedReleaseLeavesPoolUnchanged(t *testing.T) {
	p := NewPool(100)
	adjust(t, p, "a", 80)
	adjust(t, p, "b", 30) // a loses 10 to swap
	if p.Swapped("a") != 10 {
		t.Fatalf("setup: swapped(a) = %d", p.Swapped("a"))
	}
	before := snapshot(p)
	// a holds 70 resident + 10 swapped; releasing 100 is infeasible.
	if _, err := p.Adjust("a", -100); err == nil {
		t.Fatal("over-release accepted")
	}
	if got := snapshot(p); got != before {
		t.Errorf("failed release mutated the pool:\n  before %s\n  after  %s", before, got)
	}
}

// A swap-in whose eviction need exceeds the resident bytes must fail
// atomically too. Before the fix, the VM's swap debt was decremented
// before the capacity check.
func TestFailedSwapInLeavesPoolUnchanged(t *testing.T) {
	p := NewPool(60)
	adjust(t, p, "a", 50)
	adjust(t, p, "b", 40) // a loses 30 to swap
	if p.Swapped("a") != 30 {
		t.Fatalf("setup: swapped(a) = %d", p.Swapped("a"))
	}
	// Drain residency (a's release cancels swap debt first, leaving 11
	// swapped), then clamp the capacity so the fault-in's eviction need
	// (total + back - capacity = 30) exceeds the 20 resident bytes.
	adjust(t, p, "b", -40)
	adjust(t, p, "a", -19)
	p.capacity = 1
	before := snapshot(p)
	if _, err := p.SwapIn("a", 1000); err == nil {
		t.Fatal("infeasible swap-in accepted")
	}
	if got := snapshot(p); got != before {
		t.Errorf("failed SwapIn mutated the pool:\n  before %s\n  after  %s", before, got)
	}
}

func TestValidate(t *testing.T) {
	p := NewPool(100)
	adjust(t, p, "a", 80)
	adjust(t, p, "b", 30)
	if _, err := p.SwapIn("a", 40); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.total++
	if err := p.Validate(); err == nil {
		t.Error("corrupted total not detected")
	}
	p.total--
	p.peak = p.total - 1
	if err := p.Validate(); err == nil {
		t.Error("peak below total not detected")
	}
}

func TestVMsSorted(t *testing.T) {
	p := NewPool(0)
	adjust(t, p, "zeta", 1)
	adjust(t, p, "alpha", 1)
	adjust(t, p, "mid", 1)
	vms := p.VMs()
	if len(vms) != 3 || vms[0] != "alpha" || vms[1] != "mid" || vms[2] != "zeta" {
		t.Errorf("VMs = %v", vms)
	}
}

func TestResetPeak(t *testing.T) {
	p := NewPool(0)
	adjust(t, p, "a", 100)
	adjust(t, p, "a", -100)
	if p.Peak() != 100 {
		t.Error("peak before reset")
	}
	p.ResetPeak()
	if p.Peak() != 0 {
		t.Error("peak after reset")
	}
}

func TestRemoveDropsRSSAndSwapDebt(t *testing.T) {
	p := NewPool(100)
	adjust(t, p, "stay", 60)
	adjust(t, p, "leave", 40)
	adjust(t, p, "stay", 40) // forces 40 of "leave" onto swap
	if p.Swapped("leave") != 40 {
		t.Fatalf("swapped(leave) = %d", p.Swapped("leave"))
	}
	rss, swapped := p.Remove("leave")
	if rss != 0 || swapped != 40 {
		t.Errorf("Remove = (%d, %d), want (0, 40)", rss, swapped)
	}
	if p.RSS("leave") != 0 || p.Swapped("leave") != 0 {
		t.Error("entries survived Remove")
	}
	if got := p.VMs(); len(got) != 1 || got[0] != "stay" {
		t.Errorf("VMs = %v", got)
	}
	if p.Total() != 100 {
		t.Errorf("total = %d", p.Total())
	}
	// The swap ledger must still balance: dropped debt counts as swapped
	// out but never back in, which Validate allows as an inequality.
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate after Remove: %v", err)
	}
	// Removing resident bytes shrinks the total below the peak.
	rss, swapped = p.Remove("stay")
	if rss != 100 || swapped != 0 {
		t.Errorf("Remove(stay) = (%d, %d)", rss, swapped)
	}
	if p.Total() != 0 {
		t.Errorf("total = %d after removing everything", p.Total())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate on emptied pool: %v", err)
	}
	if rss, swapped = p.Remove("nonesuch"); rss != 0 || swapped != 0 {
		t.Error("unknown VM removed bytes")
	}
}

func TestRenameMovesAccounting(t *testing.T) {
	p := NewPool(100)
	adjust(t, p, "other", 60)
	adjust(t, p, "vm0:in", 40)
	adjust(t, p, "vm0:in", 20) // swaps 20 of "other" out
	if err := p.Rename("vm0:in", "vm0"); err != nil {
		t.Fatal(err)
	}
	if p.RSS("vm0") != 60 || p.RSS("vm0:in") != 0 {
		t.Errorf("RSS moved wrong: vm0=%d alias=%d", p.RSS("vm0"), p.RSS("vm0:in"))
	}
	if p.Total() != 100 {
		t.Errorf("total = %d", p.Total())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate after Rename: %v", err)
	}
	// Swap debt follows the name too.
	if err := p.Rename("other", "elsewhere"); err != nil {
		t.Fatal(err)
	}
	if p.Swapped("elsewhere") != 20 || p.Swapped("other") != 0 {
		t.Error("swap debt did not follow the rename")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate after swapped rename: %v", err)
	}
}

func TestRenameErrors(t *testing.T) {
	p := NewPool(0)
	adjust(t, p, "a", 10)
	adjust(t, p, "b", 20)
	if err := p.Rename("nonesuch", "c"); err == nil {
		t.Error("rename of unknown VM accepted")
	}
	if err := p.Rename("a", "b"); err == nil {
		t.Error("rename onto existing VM accepted")
	}
	if err := p.Rename("a", "a"); err != nil {
		t.Errorf("self-rename: %v", err)
	}
	// Failed renames leave the pool unchanged.
	if p.RSS("a") != 10 || p.RSS("b") != 20 || p.Total() != 30 {
		t.Error("failed rename mutated the pool")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRenameRegistersZeroRSSVM(t *testing.T) {
	// Migration registers the destination alias with Adjust(alias, 0)
	// before any bytes arrive; Rename must handle the zero-byte entry.
	p := NewPool(0)
	adjust(t, p, "vm0:in", 0)
	if err := p.Rename("vm0:in", "vm0"); err != nil {
		t.Fatal(err)
	}
	if got := p.VMs(); len(got) != 1 || got[0] != "vm0" {
		t.Errorf("VMs = %v", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// refVictim is the map-ranging victim choice the name-sorted scan
// replaced: largest RSS other than the faulter, ties on the smaller name.
func refVictim(p *Pool, faulter string) string {
	name := ""
	var best *entry
	for vm, e := range p.vms {
		if vm == faulter || e.rss == 0 {
			continue
		}
		if best == nil || e.rss > best.rss || (e.rss == best.rss && vm < name) {
			name, best = vm, e
		}
	}
	return name
}

// TestSortedOrderMatchesMap drives a seeded mix of grows, releases,
// swap-ins, renames and removals over VMs with colliding RSS values, and
// after every step checks that the victim choice equals the map-ranging
// reference for every possible faulter, that VMs() is sorted, and that
// Validate (which checks order/map agreement) passes.
func TestSortedOrderMatchesMap(t *testing.T) {
	p := NewPool(4096)
	p.SetTier("vm3", TierZswap)
	rng := rand.New(rand.NewSource(9))
	name := func() string { return fmt.Sprintf("vm%d", rng.Intn(8)) }
	for step := 0; step < 3000; step++ {
		vm := name()
		switch rng.Intn(6) {
		case 0, 1:
			_, _ = p.Adjust(vm, int64(rng.Intn(8)+1)*64)
		case 2:
			if have := p.RSS(vm) + p.Swapped(vm); have > 0 {
				_, _ = p.Adjust(vm, -int64(uint64(rng.Int63n(int64(have)))+1))
			}
		case 3:
			_, _ = p.SwapIn(vm, uint64(rng.Intn(512)))
		case 4:
			_ = p.Rename(vm, name()) // fails harmlessly on unknown/taken names
		case 5:
			if rng.Intn(4) == 0 {
				p.Remove(vm)
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !sort.StringsAreSorted(p.VMs()) {
			t.Fatalf("step %d: VMs() not sorted: %v", step, p.VMs())
		}
		for i := -1; i < 8; i++ {
			faulter := fmt.Sprintf("vm%d", i)
			got := ""
			if e := p.pickVictim(faulter); e != nil {
				got = e.name
			}
			if want := refVictim(p, faulter); got != want {
				t.Fatalf("step %d: faulter %s: victim %q, reference %q", step, faulter, got, want)
			}
		}
	}
	if p.SwapOutBytes == 0 {
		t.Fatal("the mix never swapped: victim choice untested")
	}
}

func TestRestoreRejectsDuplicateVM(t *testing.T) {
	p := NewPool(0)
	adjust(t, p, "a", 10)
	st := p.State()
	st.VMs = append(st.VMs, st.VMs[0])
	if err := NewPool(0).RestoreState(st); err == nil {
		t.Fatal("restore accepted a VM listed twice")
	}
}
