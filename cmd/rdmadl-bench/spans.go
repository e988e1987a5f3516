package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/internal/trace"
)

// traceEventCap bounds the recorder: xfer_* emit ~0.7M operator spans per
// second, and an event costs ~300 B. Drops are reported as trace.dropped.
const traceEventCap = 1 << 18

// tracer owns the benchmark's recorder. Benchmark-side spans carry an id and
// the id of the span that caused them; the program's own operator spans
// (distributed.Config.Trace) land in the same recorder and are linked to the
// step span of their iteration when the trace is written out.
//
// A nil *tracer records nothing, so the untraced run shares the code path.
type tracer struct {
	rec  *trace.Recorder
	next atomic.Int64
}

func newTracer() *tracer { return &tracer{rec: trace.NewRecorder(traceEventCap)} }

// recorder returns the recorder to hand to distributed.Config.Trace.
func (t *tracer) recorder() *trace.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

type span struct {
	id  int64
	end func()
}

type spanArgs struct {
	ID     int64 `json:"id"`
	Parent int64 `json:"parent"`
	Iter   *int  `json:"iter,omitempty"`
}

// begin opens a span for a call into layer, caused by parent (nil = root).
func (t *tracer) begin(parent *span, layer, name string) *span {
	return t.beginIter(parent, layer, name, -1)
}

// beginIter is begin for a span that covers one Cluster.Step iteration.
func (t *tracer) beginIter(parent *span, layer, name string, iter int) *span {
	if t == nil {
		return nil
	}
	args := spanArgs{ID: t.next.Add(1)}
	if parent != nil {
		args.Parent = parent.id
	}
	if iter >= 0 {
		args.Iter = &iter
	}
	return &span{id: args.ID, end: t.rec.Span("bench", layer, layer, name, args)}
}

// End closes the span; safe on nil.
func (s *span) End() {
	if s != nil {
		s.end()
	}
}

// linkedEvent is one chrome-trace event with the parent link resolved.
type linkedEvent struct {
	trace.Event
	id, parent int64
}

// linkEvents resolves parent links: benchmark spans carry theirs, operator
// spans recorded by the executors get the step span of their iteration.
func linkEvents(events []trace.Event) []linkedEvent {
	out := make([]linkedEvent, 0, len(events))
	stepOf := make(map[int]int64)
	nextID := int64(0)
	for _, e := range events {
		if a, ok := e.Args.(spanArgs); ok {
			if a.Iter != nil {
				stepOf[*a.Iter] = a.ID
			}
			if a.ID > nextID {
				nextID = a.ID
			}
		}
	}
	for _, e := range events {
		le := linkedEvent{Event: e}
		switch a := e.Args.(type) {
		case spanArgs:
			le.id, le.parent = a.ID, a.Parent
		case map[string]any:
			nextID++
			le.id = nextID
			if iter, ok := a["iter"].(int); ok {
				le.parent = stepOf[iter]
			}
			le.Args = map[string]any{"id": le.id, "parent": le.parent, "iter": a["iter"]}
		}
		out = append(out, le)
	}
	return out
}

// selfTimes returns each span's self time in microseconds: its duration
// minus the part of its interval that its child spans cover. Children may
// overlap one another (operators run on several tasks at once), so the cover
// is the union of their intervals clipped to the parent's.
func selfTimes(events []linkedEvent) map[int64]float64 {
	type iv struct{ lo, hi float64 }
	children := make(map[int64][]iv)
	for _, e := range events {
		if e.Phase == "X" && e.parent != 0 {
			children[e.parent] = append(children[e.parent], iv{e.TS, e.TS + e.Dur})
		}
	}
	self := make(map[int64]float64)
	for _, e := range events {
		if e.Phase != "X" || e.id == 0 {
			continue
		}
		lo, hi := e.TS, e.TS+e.Dur
		kids := children[e.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered, at := 0.0, lo
		for _, k := range kids {
			if k.lo < at {
				k.lo = at
			}
			if k.hi > hi {
				k.hi = hi
			}
			if k.hi > k.lo {
				covered += k.hi - k.lo
				at = k.hi
			}
		}
		self[e.id] = e.Dur - covered
	}
	return self
}

// write emits one chrome-trace JSON array with parent links in args.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	linked := linkEvents(t.rec.Events())
	events := make([]trace.Event, len(linked))
	for i, le := range linked {
		events[i] = le.Event
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
