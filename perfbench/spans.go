package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one request
// share Req; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// openSpan is a span whose end is not yet recorded.
type openSpan struct {
	rec *recorder
	s   span
}

// open starts a span now; its id is known at once, so children opened
// before it closes can name it as their parent.
func (r *recorder) open(name, req string, parent int64) *openSpan {
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return &openSpan{rec: r, s: span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.epoch))}}
}

// close records the span as ending now and returns it.
func (o *openSpan) close() span {
	o.s.End = int64(time.Since(o.rec.epoch))
	o.rec.add(o.s)
	return o.s
}

// add records a finished span measured elsewhere (an obs.Trace stage).
func (r *recorder) add(s span) {
	r.mu.Lock()
	if s.ID == 0 {
		r.next++
		s.ID = r.next
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// at converts a wall-clock instant to the recorder's time base.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// snapshot returns the spans recorded so far, ordered by id.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := slices.Clone(r.spans)
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b span) int { return int(a.ID - b.ID) })
	return out
}

// write stores the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanBody ends a hop span when the gateway closes the node's response
// body, so the hop covers the body transfer too.
type spanBody struct {
	io.ReadCloser
	sp   *openSpan
	once sync.Once
}

func (b *spanBody) Close() error {
	b.once.Do(func() { b.sp.close() })
	return b.ReadCloser.Close()
}

// selfTimes is the reducer: each span's duration minus the part of its
// interval covered by the union of its direct children (clipped to the
// span), so overlapping children, like a gateway's parallel hops, are
// not subtracted twice.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}
