package spec

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hyperalloc/internal/mem"
	"hyperalloc/internal/sim"
)

// testScenario is a small two-VM host: one HyperAlloc VM (exercises the
// LLFree allocators) and one virtio-mem VM (exercises the buddy
// allocators), both driven by demand workloads under a watermark
// broker.
func testScenario(seed uint64) *Scenario {
	return &Scenario{
		Version:    FormatVersion,
		Name:       "spec-test",
		Seed:       seed,
		HostMemory: 8 * mem.GiB,
		Duration:   10 * sim.Second,
		Broker:     &BrokerSpec{Policy: "watermark", Period: sim.Second},
		VMs: []VMSpec{
			{
				Name: "ha0", Mechanism: "HyperAlloc",
				MemoryMin: 3 * mem.GiB, MemoryMax: 3 * mem.GiB,
				CPUs: 4, Priority: 2,
				Workload: WorkloadSpec{
					TickPeriod: 100 * sim.Millisecond,
					DemandMin:  256 * mem.MiB, DemandMax: 768 * mem.MiB,
					CacheBytes: 8 * mem.MiB,
				},
			},
			{
				Name: "vmem0", Mechanism: "virtio-mem",
				MemoryMin: 3 * mem.GiB, MemoryMax: 3 * mem.GiB,
				CPUs: 4, Priority: 1,
				Workload: WorkloadSpec{
					TickPeriod: 150 * sim.Millisecond,
					DemandMin:  256 * mem.MiB, DemandMax: 640 * mem.MiB,
				},
			},
		},
	}
}

func TestAdmitHappyPath(t *testing.T) {
	if fs := Admit(testScenario(1)); len(fs) != 0 {
		t.Fatalf("valid scenario rejected: %v", fs)
	}
}

// TestAdmitIDs pins every stable failure ID to the scenario shape that
// trips it: each mutation must produce that exact ID as failures[0].
func TestAdmitIDs(t *testing.T) {
	cases := []struct {
		id     string
		mutate func(sc *Scenario)
	}{
		{SpecVersionID, func(sc *Scenario) { sc.Version = FormatVersion + 1 }},
		{SpecNameEmptyID, func(sc *Scenario) { sc.Name = "" }},
		{SpecDurationID, func(sc *Scenario) { sc.Duration = 0 }},
		{SpecNoVMsID, func(sc *Scenario) { sc.VMs = nil }},
		{SpecVMNameID, func(sc *Scenario) { sc.VMs[0].Name = "" }},
		{SpecDupNameID, func(sc *Scenario) { sc.VMs[1].Name = sc.VMs[0].Name }},
		{SpecMechUnknownID, func(sc *Scenario) { sc.VMs[0].Mechanism = "memballoonatic" }},
		{SpecMemBoundsID, func(sc *Scenario) { sc.VMs[0].MemoryMax = sc.VMs[0].MemoryMin - 1 }},
		{SpecMemFloorID, func(sc *Scenario) {
			sc.VMs[0].MemoryMin = mem.GiB
			sc.VMs[0].MemoryMax = mem.GiB
		}},
		{SpecVFIOPostcopyID, func(sc *Scenario) {
			sc.VMs[0].VFIO = true
			sc.VMs[0].Postcopy = true
		}},
		{SpecVFIOBalloonID, func(sc *Scenario) {
			sc.VMs[0].Mechanism = "virtio-balloon"
			sc.VMs[0].VFIO = true
		}},
		{SpecBaselineResizeID, func(sc *Scenario) {
			sc.VMs[0].Mechanism = "baseline"
			sc.VMs[0].MemoryMin = sc.VMs[0].MemoryMax - mem.GiB
		}},
		{SpecHugepageID, func(sc *Scenario) {
			// Demand beyond the VM's movable area (max - 2 GiB).
			sc.VMs[0].HugepageBytes = sc.VMs[0].MemoryMax
		}},
		{SpecTierUnknownID, func(sc *Scenario) { sc.VMs[0].Tier = "tape" }},
		{SpecAutoPeriodID, func(sc *Scenario) { sc.VMs[0].AutoPeriod = -sim.Second }},
		{SpecWorkloadID, func(sc *Scenario) {
			sc.VMs[0].Workload.DemandMin = sc.VMs[0].Workload.DemandMax + 1
		}},
		{SpecPolicyUnknownID, func(sc *Scenario) { sc.Broker.Policy = "vibes" }},
		{SpecTierPolicyID, func(sc *Scenario) { sc.Broker.TierPolicy = "static-tape" }},
		{SpecHostCapacityID, func(sc *Scenario) { sc.HostMemory = 4 * mem.GiB }},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			sc := testScenario(1)
			tc.mutate(sc)
			fs := Admit(sc)
			if len(fs) == 0 {
				t.Fatalf("mutation for %s admitted", tc.id)
			}
			found := false
			for _, f := range fs {
				if f.ID == tc.id {
					found = true
				}
			}
			if !found {
				t.Fatalf("want failure %s, got %v", tc.id, fs)
			}
		})
	}
}

// feasible is the fuzz reference predicate: an independent, flat
// re-statement of the admission rules. The table-driven validators and
// this predicate must agree on every input.
func feasible(sc *Scenario) bool {
	if sc.Version > FormatVersion || sc.Name == "" || sc.Duration <= 0 || len(sc.VMs) == 0 {
		return false
	}
	seen := map[string]bool{}
	var floors, huge uint64
	for _, v := range sc.VMs {
		if v.Name == "" || seen[v.Name] || !knownMechanisms[v.Mechanism] {
			return false
		}
		seen[v.Name] = true
		if v.MemoryMax < v.MemoryMin || v.MemoryMin <= dma32Floor || v.MemoryMax <= dma32Floor {
			return false
		}
		if v.VFIO && (v.Postcopy || isBalloon(v.Mechanism)) {
			return false
		}
		if v.Mechanism == "baseline" && v.MemoryMin != v.MemoryMax {
			return false
		}
		if v.HugepageBytes > 0 && v.HugepageBytes > v.MemoryMax-dma32Floor {
			return false
		}
		if v.Tier != "" && v.Tier != "nvme" && v.Tier != "zswap" && v.Tier != "far" {
			return false
		}
		if v.AutoPeriod < 0 || v.Workload.TickPeriod < 0 {
			return false
		}
		if w := v.Workload; w.TickPeriod > 0 &&
			(w.DemandMin > w.DemandMax || w.DemandMax > v.MemoryMax-dma32Floor) {
			return false
		}
		floors += v.MemoryMin
		huge += v.HugepageBytes
	}
	if b := sc.Broker; b != nil {
		switch b.Policy {
		case "static-split", "watermark", "proportional-share":
		default:
			return false
		}
		switch b.TierPolicy {
		case "", "cold-tier", "static-nvme", "static-zswap", "static-far":
		default:
			return false
		}
	}
	if sc.HostMemory > 0 && (floors > sc.HostMemory || huge > sc.HostMemory) {
		return false
	}
	return true
}

// TestAdmitFuzz is a seeded fuzz machine in the internal/audit style:
// it mutates random spec fields and asserts the table-driven admission
// verdict matches the flat reference predicate on every mutant.
func TestAdmitFuzz(t *testing.T) {
	rng := sim.NewRNG(0xadb15510)
	mechs := []string{"baseline", "virtio-balloon", "virtio-balloon-huge",
		"virtio-mem", "HyperAlloc", "bogus"}
	tiers := []string{"", "nvme", "zswap", "far", "tape"}
	policies := []string{"static-split", "watermark", "proportional-share", "bogus"}
	tierPolicies := []string{"", "cold-tier", "static-zswap", "static-tape", "bogus"}
	sizes := []uint64{0, mem.GiB, 2 * mem.GiB, 2*mem.GiB + mem.MiB,
		3 * mem.GiB, 5 * mem.GiB, 64 * mem.GiB}

	accepted, rejected := 0, 0
	for i := 0; i < 3000; i++ {
		sc := testScenario(uint64(i))
		// Apply 1-4 random mutations.
		for n := rng.Intn(4) + 1; n > 0; n-- {
			v := &sc.VMs[rng.Intn(len(sc.VMs))]
			switch rng.Intn(16) {
			case 0:
				sc.Version = rng.Intn(3)
			case 1:
				if rng.Intn(4) == 0 {
					sc.Name = ""
				}
			case 2:
				sc.Duration = sim.Duration(rng.Intn(3)-1) * sim.Second
			case 3:
				sc.HostMemory = sizes[rng.Intn(len(sizes))]
			case 4:
				v.Name = []string{"", "ha0", "vmem0", "x"}[rng.Intn(4)]
			case 5:
				v.Mechanism = mechs[rng.Intn(len(mechs))]
			case 6:
				v.MemoryMin = sizes[rng.Intn(len(sizes))]
			case 7:
				v.MemoryMax = sizes[rng.Intn(len(sizes))]
			case 8:
				v.VFIO = rng.Intn(2) == 0
			case 9:
				v.Postcopy = rng.Intn(2) == 0
			case 10:
				v.HugepageBytes = sizes[rng.Intn(len(sizes))]
			case 11:
				v.Tier = tiers[rng.Intn(len(tiers))]
			case 12:
				v.AutoPeriod = sim.Duration(rng.Intn(3)-1) * sim.Second
			case 13:
				v.Workload.DemandMax = sizes[rng.Intn(len(sizes))]
			case 14:
				sc.Broker.Policy = policies[rng.Intn(len(policies))]
			case 15:
				sc.Broker.TierPolicy = tierPolicies[rng.Intn(len(tierPolicies))]
			}
		}
		want, got := feasible(sc), len(Admit(sc)) == 0
		if want != got {
			t.Fatalf("mutant %d: reference predicate says feasible=%v, Admit says %v\nspec: %+v",
				i, want, got, sc)
		}
		if got {
			accepted++
		} else {
			rejected++
		}
	}
	// The machine must exercise both verdicts, or the agreement above
	// is vacuous.
	if accepted == 0 || rejected == 0 {
		t.Fatalf("degenerate fuzz run: %d accepted, %d rejected", accepted, rejected)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	sc := testScenario(7)
	data, err := sc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := back.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("spec JSON round trip is not byte-stable")
	}
	if _, err := Parse([]byte(`{"Version":1,"Bogus":3}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestSpecFiles: every checked-in spec loads, admits clean and is
// canonical (the file on disk equals its own Bytes()), and an
// infeasible edit of one is refused by Build with a typed failure
// before anything is constructed.
func TestSpecFiles(t *testing.T) {
	paths, err := filepath.Glob("../../specs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no spec files found: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if fs := Admit(sc); len(fs) > 0 {
			t.Fatalf("%s: rejected: %v", path, fs)
		}
		if out, err := sc.Bytes(); err != nil || !bytes.Equal(out, data) {
			t.Fatalf("%s: not canonical (Bytes() differs from the file): %v", path, err)
		}
	}

	sc, err := Load("../../specs/demo.json")
	if err != nil {
		t.Fatal(err)
	}
	sc.VMs[0].VFIO = true
	sc.VMs[0].Postcopy = true
	s, err := Build(sc, BuildOptions{})
	var fe *FailureError
	if !errors.As(err, &fe) || s != nil {
		t.Fatalf("want *FailureError and no simulation, got %v", err)
	}
	if fe.Failures[0].ID != SpecVFIOPostcopyID {
		t.Fatalf("want %s, got %s", SpecVFIOPostcopyID, fe.Failures[0].ID)
	}
}

// FuzzParse: Parse either returns an error or a scenario that Admit
// can judge without panicking and whose Bytes() re-parse to identical
// bytes. The seeds are the checked-in demo spec and shapes the tests
// above reject.
func FuzzParse(f *testing.F) {
	demo, err := os.ReadFile("../../specs/demo.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(demo)
	vfio := testScenario(1)
	vfio.VMs[0].VFIO = true
	vfio.VMs[0].Postcopy = true
	noVMs := testScenario(1)
	noVMs.VMs = nil
	for _, sc := range []*Scenario{testScenario(1), vfio, noVMs} {
		data, err := sc.Bytes()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"Version":1,"Bogus":3}`))
	f.Add([]byte(`{"Version":2}`))
	f.Add([]byte(`{"VMs":[{"Name":"a","MemoryMin":1,"MemoryMax":0}],"Broker":{"Policy":"vibes"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		Admit(sc)
		out, err := sc.Bytes()
		if err != nil {
			t.Fatalf("Bytes on a parsed scenario: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parsing Bytes(): %v\n%s", err, out)
		}
		out2, err := back.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("Bytes() not stable across a re-parse:\n%s\nvs\n%s", out, out2)
		}
	})
}
