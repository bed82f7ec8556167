package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"sbmlcompose/internal/serve"
)

func TestQuantileIsNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 100; i >= 1; i-- {
		xs = append(xs, time.Duration(i)*time.Millisecond)
	}
	d := newDist(xs)
	for q, want := range map[float64]time.Duration{0.5: 50, 0.9: 90, 0.99: 99, 1: 100} {
		if got := d.quantile(q); got != want*time.Millisecond {
			t.Errorf("quantile(%g) = %v, want %v", q, got, want*time.Millisecond)
		}
	}
	if name, _ := d.tail(); name != "p90" {
		t.Errorf("tail of 100 samples = %s, want p90 (ten beyond)", name)
	}
	if !newDist(make([]time.Duration, 1000)).supports(0.99) || newDist(make([]time.Duration, 999)).supports(0.99) {
		t.Error("p99 needs exactly 1000 samples for ten beyond")
	}
}

func TestServiceIsGeometricMeanOfClassMinima(t *testing.T) {
	p := phase{samples: []sample{
		{class: 0, lat: 2 * time.Millisecond, v: verdictOK},
		{class: 0, lat: 9 * time.Millisecond, v: verdictOK},
		{class: 1, lat: 30 * time.Millisecond, v: verdictOK},
		{class: 1, lat: 8 * time.Millisecond, v: verdictOK},
		{class: 1, lat: time.Millisecond, v: verdictWrong},  // not a success: ignored
		{class: 2, lat: time.Millisecond, v: verdictFailed}, // a class with no success drops out
	}}
	if got := serviceMS(&p); math.Abs(got-4) > 1e-9 {
		t.Errorf("serviceMS = %g, want 4 (geometric mean of 2 ms and 8 ms)", got)
	}
	if got := classes(&p); got != 2 {
		t.Errorf("classes = %d, want 2", got)
	}
}

func TestSelfTimesSubtractUnionOfDirectChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a, like parallel hops
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 5, Parent: 2, Name: "a.child", Start: 12, End: 18},
		{ID: 6, Name: "other root", Start: 0, End: 7},
	}
	want := map[int64]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestSpanFileRoundTrips(t *testing.T) {
	rec := newRecorder()
	root := rec.open("rung.direct", "r1", 0)
	rec.open("sbml.parse", "r1", root.s.ID).close()
	root.close()
	path := t.TempDir() + "/spans.jsonl"
	if err := writeSpans(path, rec.snapshot()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d span lines, want 2", len(lines))
	}
	var s span
	if err := json.Unmarshal(lines[1], &s); err != nil || s.Name != "sbml.parse" || s.Parent != root.s.ID || s.Req != "r1" {
		t.Errorf("second span = %+v (%v), want sbml.parse under the root", s, err)
	}
}

func TestFingerprintFollowsSeed(t *testing.T) {
	for _, gen := range []func(int64) *inputs{genEngine, genIngest} {
		a, b, c := gen(1).fingerprint(), gen(1).fingerprint(), gen(2).fingerprint()
		if a != b {
			t.Errorf("same seed gave fingerprints %s and %s", a, b)
		}
		if a == c {
			t.Errorf("seeds 1 and 2 gave the same fingerprint %s", a)
		}
	}
}

// tamper returns body with the first occurrence of old replaced.
func tamper(t *testing.T, body []byte, old, new string) []byte {
	t.Helper()
	if !bytes.Contains(body, []byte(old)) {
		t.Fatalf("body lacks %q: %.200s", old, body)
	}
	return bytes.Replace(body, []byte(old), []byte(new), 1)
}

func TestOracleRejectsWrongResponses(t *testing.T) {
	in := genEngine(1)
	in.models = in.models[:40]
	in.compose, in.simulate, in.check = nil, nil, nil
	pool := in.pool
	in.pool = nil
	taken := map[int]bool{}
	for _, e := range pool {
		if !taken[e.req.route] && e.target < "m0040" {
			taken[e.req.route] = true
			e.req.key = len(in.pool)
			in.pool = append(in.pool, e)
		}
	}
	in.hot = in.addSearchPool("qt", 1)
	served, err := buildCorpus(in.models)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := buildCorpus(in.models)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(served, serveConfig())
	wrong := map[int]func([]byte) []byte{
		routeSearch:   func(b []byte) []byte { return tamper(t, b, `"score":`, `"score":1`) },
		routeCompose:  func(b []byte) []byte { return tamper(t, b, `<species `, `<species name="x" `) },
		routeSimulate: func(b []byte) []byte { return tamper(t, b, `"values":[[`, `"values":[[1`) },
		routeCheck: func(b []byte) []byte {
			if bytes.Contains(b, []byte("true")) {
				return tamper(t, b, "true", "false")
			}
			return tamper(t, b, "false", "true")
		},
	}
	o := &oracle{verified: make([][]byte, len(in.pool))}
	seen := map[int]bool{}
	for i := range in.pool {
		e := &in.pool[i]
		status, body := inproc(srv, &e.req, "")
		if status != 200 {
			t.Fatalf("%s: status %d: %s", e.req.path, status, body)
		}
		want, err := expect(context.Background(), twin, e)
		if err != nil {
			t.Fatal(err)
		}
		if err := compare(e.req.route, want, body); err != nil {
			t.Fatalf("%s: the server's own answer was rejected: %v", e.req.path, err)
		}
		bad := wrong[e.req.route](bytes.Clone(body))
		if err := compare(e.req.route, want, bad); err == nil {
			t.Errorf("%s: a wrong response passed the direct-call oracle: %.200s", e.req.path, bad)
		}
		o.verified[i] = bytes.Clone(normalize(e.req.route, body))
		if v := o.judge(&e.req, status, body); v != verdictOK {
			t.Errorf("%s: verified bytes judged %v", e.req.path, v)
		}
		if v := o.judge(&e.req, status, bad); v != verdictWrong {
			t.Errorf("%s: wrong bytes judged %v, want verdictWrong", e.req.path, v)
		}
		if v := o.judge(&e.req, 500, body); v != verdictFailed {
			t.Errorf("%s: status 500 judged %v, want verdictFailed", e.req.path, v)
		}
		seen[e.req.route] = true
	}
	if len(seen) != 4 {
		t.Errorf("covered routes %v, want search, compose, simulate and check", seen)
	}
}

func TestBenchmarkJSONNamesTheMetricsPrinted(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed []metric) {
		if len(listed) != len(printed) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(printed))
		}
		for i, m := range listed {
			if m.Name != printed[i].name || m.Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, benchmark %s %s", kind, i, m.Name, m.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
