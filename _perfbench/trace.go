package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call from the benchmark into the program, or an operation
// grouping such calls. Spans of one operation share Op.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for an operation's root span
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"` // units of work handled: blocks, rows, ranks, events
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced rounds run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	ops   int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op starts a new operation and returns its id.
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id (-1 when t is nil).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes span id, recording n units of work.
func (t *tracer) end(id int32, n int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].N = n
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	count  int
	n      int64
	durNS  float64
	selfNS float64 // duration minus the part covered by child spans
}

// totals aggregates spans by name. Self time subtracts the union of each
// span's children, so overlapping children (parallel harness runs) are not
// subtracted twice.
func (t *tracer) totals() map[string]*spanTotals {
	out := map[string]*spanTotals{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTotals{}
			out[s.Name] = st
		}
		dur := float64(s.End - s.Start)
		st.count++
		st.n += s.N
		st.durNS += dur
		st.selfNS += dur - covered(s, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) float64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total, hi int64
	hi = parent.Start
	for _, c := range children {
		lo, end := c.Start, c.End
		if lo < hi {
			lo = hi
		}
		if end > parent.End {
			end = parent.End
		}
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return float64(total)
}

// write stores the spans as JSON lines in dir.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
