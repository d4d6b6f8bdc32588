package trace

import (
	"fmt"
	"sort"

	"hyperalloc/internal/sim"
)

// Checkpoint support: a TracerState is the full mutable state of a Tracer
// and its Registry in a serializable form. Capturing requires quiescence —
// no open spans — which holds between scheduled events (every span closes
// within the callback that opened it), so span stacks never need to be
// serialized. Restoring assumes the receiving tracer was rebuilt by the
// same deterministic construction path as the original (tracks are matched
// by name, instruments by registry key), then overwrites all recorded
// state with the checkpointed values.

// EventState is one serialized timeline event.
type EventState struct {
	At    sim.Time
	Track string
	Kind  uint8
	Name  string
	Attrs []Attr `json:",omitempty"`
}

// GaugeState is one gauge's current value and time series.
type GaugeState struct {
	Name   string
	Value  int64
	At     []sim.Time `json:",omitempty"`
	Series []int64    `json:",omitempty"`
}

// HistogramState is one histogram's full distribution. Buckets is sparse:
// Idx[i] holds the bucket index of count Cnt[i].
type HistogramState struct {
	Name  string
	Count uint64
	Sum   int64
	Max   int64
	Idx   []int    `json:",omitempty"`
	Cnt   []uint32 `json:",omitempty"`
}

// CounterState is one counter's value.
type CounterState struct {
	Name  string
	Value uint64
}

// TracerState is the serializable state of a Tracer (timeline + registry).
type TracerState struct {
	// Tracks in creation order; restore re-creates them in this order so
	// the internal track ids — and thus the exported byte stream — match.
	Tracks []string `json:",omitempty"`
	// Rejected names the track filter declined (cached nil entries).
	Rejected []string         `json:",omitempty"`
	Events   []EventState     `json:",omitempty"`
	Counters []CounterState   `json:",omitempty"`
	Gauges   []GaugeState     `json:",omitempty"`
	Hists    []HistogramState `json:",omitempty"`
}

// State captures the tracer's full state. It fails if any span is open:
// checkpoints are taken between events, where spans are balanced.
func (t *Tracer) State() (*TracerState, error) {
	if t == nil {
		return &TracerState{}, nil
	}
	if err := t.CheckBalanced(); err != nil {
		return nil, fmt.Errorf("trace: checkpoint with open span: %w", err)
	}
	st := &TracerState{}
	for _, tr := range t.tracks {
		st.Tracks = append(st.Tracks, tr.name)
	}
	for name, tr := range t.byName {
		if tr == nil {
			st.Rejected = append(st.Rejected, name)
		}
	}
	sort.Strings(st.Rejected)
	for _, ev := range t.events {
		st.Events = append(st.Events, EventState{
			At: ev.at, Track: t.tracks[ev.track].name,
			Kind: uint8(ev.kind), Name: ev.name, Attrs: ev.attrs,
		})
	}
	st.Counters, st.Gauges, st.Hists = t.reg.state()
	return st, nil
}

// state captures the registry's instruments (sorted by name).
func (r *Registry) state() ([]CounterState, []GaugeState, []HistogramState) {
	var cs []CounterState
	var gs []GaugeState
	var hs []HistogramState
	for _, c := range r.Counters() {
		cs = append(cs, CounterState{Name: c.name, Value: c.v})
	}
	for _, g := range r.Gauges() {
		s := GaugeState{Name: g.name, Value: g.v}
		for _, p := range g.series {
			s.At = append(s.At, p.at)
			s.Series = append(s.Series, p.v)
		}
		gs = append(gs, s)
	}
	for _, h := range r.Histograms() {
		s := HistogramState{Name: h.name, Count: h.count, Sum: h.sum, Max: h.max}
		for i, c := range h.buckets {
			if c != 0 {
				s.Idx = append(s.Idx, i)
				s.Cnt = append(s.Cnt, c)
			}
		}
		hs = append(hs, s)
	}
	return cs, gs, hs
}

// RestoreState overwrites the tracer's recorded state with a checkpointed
// one. Tracks and instruments already created by the (deterministic)
// reconstruction are kept — their values are overwritten — and any in the
// state but not yet created are created now, in state order.
func (t *Tracer) RestoreState(st *TracerState) error {
	if t == nil {
		if len(st.Events) > 0 || len(st.Counters) > 0 {
			return fmt.Errorf("trace: restoring state into a nil tracer")
		}
		return nil
	}
	// Track ids must match the checkpointed creation order: the rebuilt
	// simulation creates tracks in the same order, so verify and fill in
	// any tail the rebuild has not reached yet.
	for i, name := range st.Tracks {
		if i < len(t.tracks) {
			if t.tracks[i].name != name {
				return fmt.Errorf("trace: track %d is %q, checkpoint has %q (non-deterministic rebuild)",
					i, t.tracks[i].name, name)
			}
			continue
		}
		if t.filter != nil && !t.filter(name) {
			return fmt.Errorf("trace: checkpointed track %q rejected by filter on restore", name)
		}
		t.Track(name)
	}
	for _, name := range st.Rejected {
		if tr, ok := t.byName[name]; ok && tr != nil {
			return fmt.Errorf("trace: track %q accepted on restore but rejected in checkpoint", name)
		}
		t.byName[name] = nil
	}
	byName := make(map[string]int32, len(t.tracks))
	for _, tr := range t.tracks {
		byName[tr.name] = tr.id
	}
	t.events = t.events[:0]
	for _, ev := range st.Events {
		id, ok := byName[ev.Track]
		if !ok {
			return fmt.Errorf("trace: event on unknown track %q", ev.Track)
		}
		t.events = append(t.events, event{
			at: ev.At, track: id, kind: eventKind(ev.Kind), name: ev.Name, attrs: ev.Attrs,
		})
	}
	return t.reg.restoreState(st)
}

// restoreState overwrites instrument values with checkpointed ones. All
// existing instruments are zeroed first: the rebuild may have touched
// instruments (construction-time populate costs) that the checkpoint
// recorded as empty and therefore omitted.
func (r *Registry) restoreState(st *TracerState) error {
	for _, c := range r.counters {
		c.v = 0
	}
	for _, g := range r.gauges {
		g.v = 0
		g.series = nil
	}
	for _, h := range r.histograms {
		h.count, h.sum, h.max = 0, 0, 0
		h.buckets = [numBuckets]uint32{}
	}
	for _, c := range st.Counters {
		r.Counter(c.Name).v = c.Value
	}
	for _, g := range st.Gauges {
		dst := r.Gauge(g.Name)
		dst.v = g.Value
		dst.series = dst.series[:0]
		for i := range g.At {
			dst.series = append(dst.series, gaugePoint{at: g.At[i], v: g.Series[i]})
		}
	}
	for _, h := range st.Hists {
		dst := r.Histogram(h.Name)
		dst.count, dst.sum, dst.max = h.Count, h.Sum, h.Max
		dst.buckets = [numBuckets]uint32{}
		for i, idx := range h.Idx {
			if idx < 0 || idx >= numBuckets {
				return fmt.Errorf("trace: histogram %q bucket index %d out of range", h.Name, idx)
			}
			dst.buckets[idx] = h.Cnt[i]
		}
	}
	return nil
}
