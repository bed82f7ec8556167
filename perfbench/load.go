package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed request of a load phase.
type sample struct {
	route, class int
	// lat runs from when the request was due to when its response body
	// was read, so waiting for a connection or behind a stall counts.
	lat time.Duration
	v   verdict
}

// phase is the outcome of one load phase.
type phase struct {
	samples []sample
	// lag is the open-loop generator's lateness: when each arrival was
	// handed to a client minus when it was due.
	lag  []time.Duration
	wall time.Duration
}

// ok counts the samples that succeeded and passed the oracle.
func (p *phase) ok() int {
	n := 0
	for _, s := range p.samples {
		if s.v == verdictOK {
			n++
		}
	}
	return n
}

// latencies returns the successful samples' latencies for route r
// (every route when r < 0).
func (p *phase) latencies(r int) dist {
	var xs []time.Duration
	for _, s := range p.samples {
		if s.v == verdictOK && (r < 0 || s.route == r) {
			xs = append(xs, s.lat)
		}
	}
	return newDist(xs)
}

// merge pools the samples and lateness of several phases.
func merge(ps []phase) phase {
	var m phase
	for _, p := range ps {
		m.samples = append(m.samples, p.samples...)
		m.lag = append(m.lag, p.lag...)
		m.wall += p.wall
	}
	return m
}

// medianQuantile is the median over phases of each phase's q-quantile
// latency, so one round disturbed from outside the benchmark does not
// move the result.
func medianQuantile(ps []phase, q float64) time.Duration {
	xs := make([]float64, len(ps))
	for i := range ps {
		xs[i] = float64(ps[i].latencies(-1).quantile(q))
	}
	return time.Duration(medianf(xs))
}

// serviceMS returns the geometric mean over request classes of each
// class's fastest successful open-loop latency, in ms. Interference (the
// GC, the other client's request, a neighbour on the shared box) only
// ever adds to a request's latency, so a class's fastest sample is its
// cost when nothing held it up, and it holds still when a neighbour
// slows most of a run. Taking it per class keeps the figure from hopping
// between classes of different cost the way a whole-mix percentile
// does, and the geometric mean weighs a change to any class by its
// ratio, not by the class's cost. Every class recurs about as often in
// every run (the stream order does not depend on the seed), so each
// minimum is over the same number of samples.
func serviceMS(p *phase) float64 {
	byClass := map[int]time.Duration{}
	for _, s := range p.samples {
		if best, seen := byClass[s.class]; s.v == verdictOK && (!seen || s.lat < best) {
			byClass[s.class] = s.lat
		}
	}
	if len(byClass) == 0 {
		return 0
	}
	var logSum float64
	for _, lat := range byClass {
		logSum += math.Log(ms(lat))
	}
	return math.Exp(logSum / float64(len(byClass)))
}

// classes counts the request classes among p's successful samples.
func classes(p *phase) int {
	seen := map[int]bool{}
	for _, s := range p.samples {
		if s.v == verdictOK {
			seen[s.class] = true
		}
	}
	return len(seen)
}

// midMean returns the mean of xs without its lowest and its highest
// value, so one round that a neighbour slowed, or one that ran while the
// box was briefly fast, does not move the figure.
func midMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) > 2 {
		s = s[1 : len(s)-1]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// roundP50s returns each phase's p50 latency in ms.
func roundP50s(ps []phase) []float64 {
	xs := make([]float64, len(ps))
	for i := range ps {
		xs[i] = ms(ps[i].latencies(-1).quantile(0.5))
	}
	return xs
}

// roundRates returns each phase's successful completions per second.
func roundRates(ps []phase) []float64 {
	xs := make([]float64, len(ps))
	for i := range ps {
		xs[i] = float64(ps[i].ok()) / ps[i].wall.Seconds()
	}
	return xs
}

// loadgen sends a workload's request stream from one process over at
// most nproc client connections.
type loadgen struct {
	client *http.Client
	base   string
	in     *inputs
	or     *oracle
	nproc  int
	// seq is the next stream index; open and closed phases continue one
	// stream so ingest never reuses a model id.
	seq atomic.Int64
	// rec, when set, records a span per load request (traced run).
	rec *recorder

	mu       sync.Mutex
	wrong    int
	firstBad string
}

func newLoadgen(base string, in *inputs, or *oracle, nproc int) *loadgen {
	tr := &http.Transport{
		MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc,
		DisableCompression: true, IdleConnTimeout: time.Minute,
	}
	return &loadgen{
		client: &http.Client{Transport: tr, Timeout: time.Minute},
		base:   base, in: in, or: or, nproc: nproc,
	}
}

// send makes one request and reads the whole response into buf.
func (d *loadgen) send(base string, req *request, rid string, buf *bytes.Buffer) (int, []byte, error) {
	hreq, err := http.NewRequest(req.method, base+req.path, bytes.NewReader(req.body))
	if err != nil {
		return 0, nil, err
	}
	if rid != "" {
		hreq.Header.Set("X-Request-Id", rid)
	}
	resp, err := d.client.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, buf.Bytes(), err
}

// fire sends stream request idx, due at due, and judges its response.
func (d *loadgen) fire(idx int64, due time.Time, buf *bytes.Buffer) sample {
	req := d.in.next(idx)
	var sp *openSpan
	if d.rec != nil {
		sp = d.rec.open("load."+routeNames[req.route], fmt.Sprintf("s%d", idx), 0)
	}
	status, body, err := d.send(d.base, &req, "", buf)
	lat := time.Since(due)
	if sp != nil {
		sp.close()
	}
	v := verdictFailed
	if err == nil {
		v = d.or.judge(&req, status, body)
	}
	if v == verdictWrong {
		d.noteWrong(fmt.Sprintf("%s %s (stream %d): response disagrees with the oracle: %.200s", req.method, req.path, idx, body))
	}
	return sample{route: req.route, class: req.class, lat: lat, v: v}
}

func (d *loadgen) noteWrong(msg string) {
	d.mu.Lock()
	d.wrong++
	if d.firstBad == "" {
		d.firstBad = msg
	}
	d.mu.Unlock()
}

// workers runs nproc clients, each feeding its samples through work,
// and returns every sample once all have stopped.
func (d *loadgen) workers(work func(add func(sample), buf *bytes.Buffer)) []sample {
	out := make([][]sample, d.nproc)
	var wg sync.WaitGroup
	for w := 0; w < d.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			work(func(s sample) { out[w] = append(out[w], s) }, &buf)
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// openLoop offers rate requests per second for dur on a fixed schedule
// at absolute times; arrivals queue FIFO for the nproc clients, so a
// slow response delays the ones due after it and that wait is timed.
func (d *loadgen) openLoop(rate float64, dur time.Duration) phase {
	n := int(rate * dur.Seconds())
	type job struct {
		idx int64
		due time.Time
	}
	jobs := make(chan job, n) // one slot per arrival: the schedule never blocks on a busy client
	p := phase{lag: make([]time.Duration, 0, n)}
	done := make(chan []sample)
	go func() {
		done <- d.workers(func(add func(sample), buf *bytes.Buffer) {
			for j := range jobs {
				add(d.fire(j.idx, j.due, buf))
			}
		})
	}()
	start := time.Now()
	interval := dur / time.Duration(n)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		p.lag = append(p.lag, time.Since(due))
		jobs <- job{idx: d.seq.Add(1) - 1, due: due}
	}
	close(jobs)
	p.samples = <-done
	p.wall = time.Since(start)
	return p
}

// closedLoop runs nproc clients back to back for dur.
func (d *loadgen) closedLoop(dur time.Duration) phase {
	start := time.Now()
	stop := start.Add(dur)
	p := phase{samples: d.workers(func(add func(sample), buf *bytes.Buffer) {
		for time.Now().Before(stop) {
			add(d.fire(d.seq.Add(1)-1, time.Now(), buf))
		}
	})}
	p.wall = time.Since(start)
	return p
}

// rtCounters are the whole-process runtime/metrics the closed loop is
// charged with.
type rtCounters struct {
	allocs, allocBytes, gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

// add returns c plus the change from before to after.
func (c rtCounters) add(after, before rtCounters) rtCounters {
	return rtCounters{
		c.allocs + after.allocs - before.allocs, c.allocBytes + after.allocBytes - before.allocBytes,
		c.gcCPU + after.gcCPU - before.gcCPU, c.totalCPU + after.totalCPU - before.totalCPU,
	}
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return float64(s[i].Value.Uint64())
		}
		return s[i].Value.Float64()
	}
	return rtCounters{v(0), v(1), v(2), v(3)}
}

// liveHeapMB forces a collection and reads the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
