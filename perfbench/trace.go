package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// exported function it calls. Times are nanoseconds since the tracer began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Req    int64  `json:"req"`    // request (or operation) the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run stays free of tracing cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns it; end records it. Split in two so a span
// can enclose work on other goroutines.
func (t *tracer) begin(name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	return span{Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))}
}

func (t *tracer) end(s span) time.Duration {
	if t == nil {
		return 0
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.dur()
}

// open reserves an ID for a parent span whose children are recorded before
// it ends; close fills it in.
func (t *tracer) open(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	s := t.begin(name, parent, req)
	t.mu.Lock()
	s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

func (t *tracer) close(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns fn's duration.
func (t *tracer) timed(name string, parent, req int64, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	s := t.begin(name, parent, req)
	fn()
	return t.end(s)
}

// durations returns the durations of every span with the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the union of the intervals its children cover. Children of
// one parent may overlap (work fanned out to pool workers), so the union —
// not the sum — is subtracted.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		covered := int64(0)
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		lo, hi := int64(-1), int64(-1)
		for _, c := range ch {
			cs, ce := max(c.Start, s.Start), min(c.End, s.End)
			if ce <= cs {
				continue
			}
			if cs > hi {
				covered += hi - lo
				lo, hi = cs, ce
			} else if ce > hi {
				hi = ce
			}
		}
		covered += hi - lo
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores a header line, then every span as one JSON object per line.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// printSelfTimes writes the self-time table, largest first.
func (t *tracer) printSelfTimes(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintln(w, "self time by span:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %12.3f ms  (%d spans)\n", n, float64(self[n])/1e6, len(t.durations(n)))
	}
}
