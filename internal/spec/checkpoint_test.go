package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"hyperalloc/internal/buddy"
	"hyperalloc/internal/guest"
	"hyperalloc/internal/report"
	"hyperalloc/internal/sim"
)

func unmarshalCheckpoint(data []byte, cp *Checkpoint) error {
	return json.Unmarshal(data, cp)
}

// runBytes serializes a finished simulation's observable output: the
// result summary plus the full trace state (every event, counter,
// gauge series, and histogram). Byte equality on this pair is the
// checkpoint guarantee.
func runBytes(t *testing.T, s *Sim) []byte {
	t.Helper()
	res, err := report.JSONBytes(s.Result())
	if err != nil {
		t.Fatal(err)
	}
	ts, err := s.Tracer.State()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := report.JSONBytes(ts)
	if err != nil {
		t.Fatal(err)
	}
	return append(res, tb...)
}

// uninterrupted runs the scenario start to finish.
func uninterrupted(t *testing.T, sc *Scenario) []byte {
	t.Helper()
	s, err := Build(sc, BuildOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	return runBytes(t, s)
}

// interrupted runs to T, checkpoints through a full JSON round trip,
// restores, and finishes the run on the restored simulation.
func interrupted(t *testing.T, sc *Scenario, at sim.Time) []byte {
	t.Helper()
	s, err := Build(sc, BuildOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	s.StepUntil(at)
	cp, err := s.Capture()
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the serialized form so the test covers the
	// file format, not just the in-memory structs.
	data, err := cp.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	cp2 := &Checkpoint{}
	if err := unmarshalCheckpoint(data, cp2); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(cp2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	if err := r.Audit(); err != nil {
		t.Fatal(err)
	}
	return runBytes(t, r)
}

// TestCheckpointByteIdentity is the tentpole guarantee: checkpoint at
// sim-time T, restore, continue ⇒ results and traces byte-for-byte
// equal to the uninterrupted run, at several cut points including ones
// that land between broker ticks and mid-workload.
func TestCheckpointByteIdentity(t *testing.T) {
	sc := testScenario(42)
	want := uninterrupted(t, sc)
	for _, at := range []sim.Time{
		sim.Time(250 * sim.Millisecond),
		sim.Time(1500 * sim.Millisecond),
		sim.Time(4*sim.Second + 75*sim.Millisecond),
	} {
		got := interrupted(t, sc, at)
		if !bytes.Equal(want, got) {
			t.Fatalf("restore at %d diverged from uninterrupted run (%d vs %d bytes)",
				at, len(want), len(got))
		}
	}
}

// TestCheckpointByteIdentityParallel re-runs the identity check on
// several goroutines at once (the -parallel axis): simulations share no
// state, so worker count must not affect a single run's bytes.
func TestCheckpointByteIdentityParallel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sc := testScenario(42)
			want := uninterrupted(t, sc)
			var wg sync.WaitGroup
			got := make([][]byte, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					got[w] = interrupted(t, testScenario(42), sim.Time(1500*sim.Millisecond))
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				if !bytes.Equal(want, got[w]) {
					t.Fatalf("worker %d/%d diverged", w, workers)
				}
			}
		})
	}
}

// TestCheckpointRoundTrip pins the checkpoint file format: capture →
// bytes → load → bytes must be byte-stable.
func TestCheckpointRoundTrip(t *testing.T) {
	s, err := Build(testScenario(3), BuildOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	s.StepUntil(sim.Time(2 * sim.Second))
	cp, err := s.Capture()
	if err != nil {
		t.Fatal(err)
	}
	data, err := cp.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	cp2 := &Checkpoint{}
	if err := unmarshalCheckpoint(data, cp2); err != nil {
		t.Fatal(err)
	}
	data2, err := cp2.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("checkpoint JSON round trip is not byte-stable")
	}
}

// TestRestoreRejectsCorruption: a checkpoint with one corrupted field
// must fail Restore with an error — not panic, not hang, not restore
// silently. The pool-RSS row is caught by the restore-time audit
// (audit.ValidateSpec); the others by the component restores.
func TestRestoreRejectsCorruption(t *testing.T) {
	s, err := Build(testScenario(5), BuildOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	s.StepUntil(sim.Time(sim.Second))
	cp, err := s.Capture()
	if err != nil {
		t.Fatal(err)
	}
	data, err := cp.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name    string
		corrupt func(t *testing.T, cp *Checkpoint)
	}{
		{"pool-rss", func(t *testing.T, cp *Checkpoint) {
			// Desync host accounting from the EPT: the pool thinks the
			// first VM is one huge frame lighter than its mapped state.
			cp.Pool.VMs[0].RSS -= 2 << 20
			cp.Pool.Total -= 2 << 20
		}},
		{"free-pfn-out-of-range", func(t *testing.T, cp *Checkpoint) {
			b, list := freeList(t, cp)
			(*list)[0] = uint32(b.Frames)
		}},
		{"free-pfn-listed-twice", func(t *testing.T, cp *Checkpoint) {
			_, list := freeList(t, cp)
			*list = append(*list, (*list)[0])
		}},
		{"free-pfn-header-used", func(t *testing.T, cp *Checkpoint) {
			// List the head of a region chunk, which the header marks used.
			vs, c := regionChunk(t, cp, "vmem0")
			b := vs.Guest.Zones[c.Zone].Buddy
			b.Free[c.Order][0] = append(b.Free[c.Order][0], uint32(c.PFN))
		}},
		{"header-inside-block", func(t *testing.T, cp *Checkpoint) {
			// Copy a used block's head header onto a frame inside it.
			vs, c := regionChunk(t, cp, "vmem0")
			if c.Order == 0 {
				t.Fatal("first vmem0 chunk has no interior")
			}
			b := vs.Guest.Zones[c.Zone].Buddy
			b.Hdr[c.PFN+1] = b.Hdr[c.PFN]
		}},
		{"pageblock-migratetype", func(t *testing.T, cp *Checkpoint) {
			b, _ := freeList(t, cp)
			b.BlockMT[0] = 7
		}},
		{"free-header-unlisted", func(t *testing.T, cp *Checkpoint) {
			_, list := freeList(t, cp)
			*list = (*list)[1:]
		}},
		{"region-order-32", func(t *testing.T, cp *Checkpoint) {
			_, c := regionChunk(t, cp, "ha0")
			c.Order = 32
		}},
		{"region-pfn-2^40", func(t *testing.T, cp *Checkpoint) {
			_, c := regionChunk(t, cp, "ha0")
			c.PFN = 1 << 40
		}},
		{"region-chunk-not-held", func(t *testing.T, cp *Checkpoint) {
			_, c := regionChunk(t, cp, "vmem0")
			c.Order++
		}},
		{"region-chunk-owned-twice", func(t *testing.T, cp *Checkpoint) {
			vs, c := regionChunk(t, cp, "ha0")
			r := &vs.Workload.Regions[len(vs.Workload.Regions)-1]
			r.Chunks = append(r.Chunks, *c)
		}},
		{"ledger-amount-short", func(t *testing.T, cp *Checkpoint) {
			// Drop the last amount of a kind's entry stream, leaving
			// one Start without its Amount.
			for _, vs := range cp.VMs {
				for k, a := range vs.Ledger.Amount {
					if len(a) > 0 {
						vs.Ledger.Amount[k] = a[:len(a)-1]
						return
					}
				}
			}
			t.Fatal("checkpoint has no ledger entries")
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cp := &Checkpoint{}
			if err := unmarshalCheckpoint(data, cp); err != nil {
				t.Fatal(err)
			}
			row.corrupt(t, cp)
			type outcome struct {
				err   error
				panic any
			}
			done := make(chan outcome, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						done <- outcome{panic: p}
					}
				}()
				_, err := Restore(cp, BuildOptions{})
				done <- outcome{err: err}
			}()
			select {
			case o := <-done:
				switch {
				case o.panic != nil:
					t.Fatalf("restore panicked: %v", o.panic)
				case o.err == nil:
					t.Fatal("corrupted checkpoint restored without error")
				}
				t.Logf("rejected: %v", o.err)
			case <-time.After(30 * time.Second):
				t.Fatal("restore did not return within 30 s")
			}
		})
	}
}

// freeList returns the first buddy zone state in the checkpoint and its
// first non-empty free list.
func freeList(t *testing.T, cp *Checkpoint) (*buddy.AllocState, *[]uint32) {
	t.Helper()
	for _, vs := range cp.VMs {
		for _, zs := range vs.Guest.Zones {
			if zs.Buddy == nil {
				continue
			}
			for order := range zs.Buddy.Free {
				for mt := range zs.Buddy.Free[order] {
					if list := &zs.Buddy.Free[order][mt]; len(*list) > 0 {
						return zs.Buddy, list
					}
				}
			}
		}
	}
	t.Fatal("checkpoint has no non-empty buddy free list")
	return nil, nil
}

// regionChunk returns the named VM's state and the first chunk of its
// workload's regions.
func regionChunk(t *testing.T, cp *Checkpoint, vm string) (*VMState, *guest.ChunkState) {
	t.Helper()
	for _, vs := range cp.VMs {
		if vs.Name != vm || vs.Workload == nil {
			continue
		}
		for _, r := range vs.Workload.Regions {
			if len(r.Chunks) > 0 {
				return vs, &r.Chunks[0]
			}
		}
	}
	t.Fatalf("VM %q has no region chunk", vm)
	return nil, nil
}

// TestCaptureRejectsVFIO: VFIO runs have no IOMMU serialization and
// must fail politely.
func TestCaptureRejectsVFIO(t *testing.T) {
	sc := testScenario(6)
	sc.VMs[1].VFIO = true // virtio-mem is DMA-safe, so admission passes
	s, err := Build(sc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.StepUntil(sim.Time(sim.Second))
	if _, err := s.Capture(); err == nil {
		t.Fatal("VFIO checkpoint did not fail")
	}
}
