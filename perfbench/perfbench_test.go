package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// pbWriter builds protobuf messages for hand-made profiles.
type pbWriter struct{ buf []byte }

func (w *pbWriter) varint(x uint64) {
	for x >= 0x80 {
		w.buf = append(w.buf, byte(x)|0x80)
		x >>= 7
	}
	w.buf = append(w.buf, byte(x))
}

func (w *pbWriter) uint(field int, x uint64) {
	w.varint(uint64(field) << 3)
	w.varint(x)
}

func (w *pbWriter) bytes(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *pbWriter) packed(field int, xs []uint64) {
	var p pbWriter
	for _, x := range xs {
		p.varint(x)
	}
	w.bytes(field, p.buf)
}

// buildProfile encodes stacks (innermost frame first) as a gzipped
// profile.proto with one location per frame, except that frames joined
// by "+" share one location as inlined lines. Each stack gets weight
// (count, ns) = (1, weights[i]); the first stack's locations are written
// unpacked to cover both encodings.
func buildProfile(t *testing.T, stacks [][]string, weights []int64) []byte {
	t.Helper()
	var w pbWriter
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	var nextLoc uint64
	for i, st := range stacks {
		var locIDs []uint64
		for _, frame := range st {
			var lines pbWriter
			nextLoc++
			lines.uint(1, nextLoc)
			for _, fn := range splitPlus(frame) {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					var f pbWriter
					f.uint(1, id)
					f.uint(2, str(fn))
					w.bytes(5, f.buf)
				}
				var l pbWriter
				l.uint(1, id)
				l.uint(2, 7)
				lines.bytes(4, l.buf)
			}
			w.bytes(4, lines.buf)
			locIDs = append(locIDs, nextLoc)
		}
		var s pbWriter
		if i == 0 {
			for _, id := range locIDs {
				s.uint(1, id)
			}
		} else {
			s.packed(1, locIDs)
		}
		s.packed(2, []uint64{1, uint64(weights[i])})
		w.bytes(2, s.buf)
	}
	for _, s := range strs {
		w.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(w.buf); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func splitPlus(frame string) []string {
	var out []string
	start := 0
	for i := 0; i < len(frame); i++ {
		if frame[i] == '+' {
			out = append(out, frame[start:i])
			start = i + 1
		}
	}
	return append(out, frame[start:])
}

func TestLayerSharesFromHandBuiltProfile(t *testing.T) {
	stacks := [][]string{
		// Runtime frames go to the nearest hyperalloc caller.
		{"runtime.mapassign", "hyperalloc/internal/guest.(*Guest).rmapAdd", "hyperalloc/internal/workload.Overcommit", "main.main"},
		{"hyperalloc/internal/llfree.(*Alloc).scanTrees", "hyperalloc/internal/guest.(*Guest).AllocAnon"},
		// An inlined llfree frame inside a guest location: innermost wins.
		{"hyperalloc/internal/llfree.treeReserved+hyperalloc/internal/guest.(*Guest).alloc", "main.fig4Iter"},
		{"encoding/json.Marshal", "hyperalloc/internal/report.JSONBytes", "hyperalloc/internal/spec.(*Checkpoint).Bytes"},
		{"hyperalloc.(*System).NewVM", "main.fig4Iter"},
		{"hyperalloc/internal/runner.Map.func1"}, // an unlisted layer
		// Samples without a hyperalloc frame.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.bgsweep"},
		{"crypto/sha256.block", "main.digest", "main.main"},
		{"runtime.futex", "runtime.mstart"},
	}
	weights := []int64{30, 20, 10, 10, 5, 5, 8, 2, 6, 4}
	samples, err := parseProfile(buildProfile(t, stacks, weights))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
	}
	if got := samples[2].stack; len(got) != 3 || got[0] != "hyperalloc/internal/llfree.treeReserved" {
		t.Fatalf("inlined frames decoded as %q", got)
	}
	shares, ticks := layerShares(samples)
	if ticks != int64(len(stacks)) {
		t.Fatalf("counted %d ticks, want %d", ticks, len(stacks))
	}
	want := map[string]float64{
		"guest.cpu_share":      0.30,
		"llfree.cpu_share":     0.30,
		"report.cpu_share":     0.10,
		"hyperalloc.cpu_share": 0.05,
		"other.cpu_share":      0.05,
		"runtime.gc_share":     0.10,
		"bench.cpu_share":      0.06,
		"runtime.other_share":  0.04,
	}
	for k, v := range want {
		if math.Abs(shares[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, shares[k], v)
		}
	}
	sum := 0.0
	for _, k := range shareKeys() {
		sum += shares[k]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("reported shares sum to %g, want 1", sum)
	}
	for k := range shares {
		found := false
		for _, key := range shareKeys() {
			found = found || key == k
		}
		if !found {
			t.Errorf("bucket %q is not a reported metric", k)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("accepted a non-gzip profile")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x05, 0x01}) // a bytes field longer than the message
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("accepted a truncated message")
	}
}

func TestSelfTimesAndChromeTrace(t *testing.T) {
	r := newRecorder()
	for run := 0; run < 2; run++ {
		r.beginRun(run)
		r.begin("spec.restore")
		r.begin("spec.build")
		r.end()
		r.end()
		r.begin("spec.run")
		r.end()
		r.end()
	}
	self, total := r.selfTimes()
	var sum int64
	for _, d := range self {
		if d < 0 {
			t.Fatalf("negative self time in %v", self)
		}
		sum += int64(d)
	}
	if sum != int64(total) {
		t.Fatalf("self times sum to %d, root spans cover %d", sum, total)
	}
	if err := r.writeChrome(t.TempDir()+"/trace.json", "test"); err != nil {
		t.Fatal(err)
	}
}

// TestMetricNamesMatchBenchmarkJSON: the result line carries exactly the
// metrics, with the units, that ../BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, m map[string]metric, want []decl) {
		if len(m) != len(want) {
			t.Errorf("%s: reported %d metrics, BENCHMARK.json declares %d", what, len(m), len(want))
		}
		for _, d := range want {
			if got, ok := m[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("%s: %s reported as %+v (present %v), declared unit %q", what, d.Name, got, ok, d.Unit)
			}
		}
	}

	its := []iteration{{setup: time.Millisecond, wall: time.Second, alloc: 1 << 20}}
	e2e := map[string]metric{}
	if err := endToEnd(e2e, its); err != nil {
		t.Fatal(err)
	}
	same("end_to_end", e2e, spec.EndToEnd)

	r := newRecorder()
	r.beginRun(0)
	r.begin("spec.run")
	r.end()
	r.end()
	prof := buildProfile(t, [][]string{{"hyperalloc/internal/spec.(*Sim).Run"}}, []int64{10})
	layer := map[string]metric{}
	if err := perLayer(layer, 40, its, its, r, prof, filepath.Join(t.TempDir(), "trace.json")); err != nil {
		t.Fatal(err)
	}
	same("per_layer", layer, spec.PerLayer)
}
