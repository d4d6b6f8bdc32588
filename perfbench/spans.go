package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hyperalloc/internal/trace"
)

// span is one recorded interval around a call the benchmark makes.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int           // index into recorder.spans, -1 for a root
	run        int           // the iteration the span belongs to
}

// recorder keeps the traced run's spans in memory. Every iteration is a
// root span named "iter"; the spans the workloads open nest inside it.
// A nil recorder records nothing, so untraced code pays one nil check.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	run   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// beginRun opens iteration run's root span; end closes it.
func (r *recorder) beginRun(run int) {
	if r == nil {
		return
	}
	r.run = run
	r.begin("iter")
}

func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), parent: parent, run: r.run})
	r.open = append(r.open, len(r.spans)-1)
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	n := len(r.open)
	r.spans[r.open[n-1]].end = time.Since(r.epoch)
	r.open = r.open[:n-1]
}

// finish closes every open span.
func (r *recorder) finish() {
	for len(r.open) > 0 {
		r.end()
	}
}

// children lists each span's child spans in start order.
func (r *recorder) children() [][]int {
	kids := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	return kids
}

// self is span i's duration minus the time its children cover (children
// run one after another on the benchmark's single goroutine).
func (r *recorder) self(i int, kids [][]int) time.Duration {
	d := r.spans[i].end - r.spans[i].start
	for _, c := range kids[i] {
		d -= r.spans[c].end - r.spans[c].start
	}
	return d
}

// selfTimes returns each span name's total self time and the total
// duration of the root spans, which the self times sum to.
func (r *recorder) selfTimes() (map[string]time.Duration, time.Duration) {
	r.finish()
	kids := r.children()
	self := make(map[string]time.Duration)
	var total time.Duration
	for i, s := range r.spans {
		self[s.name] += r.self(i, kids)
		if s.parent < 0 {
			total += s.end - s.start
		}
	}
	return self, total
}

// chromeEvent is one Chrome trace-event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON on one track,
// checks the file with trace.ValidateChrome, and writes it to path.
func (r *recorder) writeChrome(path, process string) error {
	r.finish()
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "benchmark"}},
	}
	kids := r.children()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	var emit func(i int)
	emit = func(i int) {
		s := r.spans[i]
		args := map[string]any{"run": s.run, "self_us": us(r.self(i, kids))}
		if s.parent >= 0 {
			args["parent"] = r.spans[s.parent].name
		}
		events = append(events, chromeEvent{Name: s.name, Ph: "B", Ts: us(s.start), Pid: 1, Tid: 1, Args: args})
		for _, c := range kids[i] {
			emit(c)
		}
		events = append(events, chromeEvent{Name: s.name, Ph: "E", Ts: us(s.end), Pid: 1, Tid: 1})
	}
	for i, s := range r.spans {
		if s.parent < 0 {
			emit(i)
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := trace.ValidateChrome(data); err != nil {
		return fmt.Errorf("span trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
