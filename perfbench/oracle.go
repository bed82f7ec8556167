package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"sbmlcompose"
	"sbmlcompose/internal/store"
)

// verdict is the oracle's judgement of one response.
type verdict int

const (
	verdictOK verdict = iota
	// verdictFailed: a transport error or an error status.
	verdictFailed
	// verdictWrong: a success status whose content disagrees with the
	// direct-call oracle.
	verdictWrong
)

// oracle judges responses. Warm-up verifies one response per pool entry
// against direct calls on an identically seeded in-process twin and
// keeps its normalized bytes; every later response to the same entry
// must equal them byte for byte.
type oracle struct {
	verified [][]byte
	// acked records the ingest writes the server acknowledged, for the
	// durability check after the run.
	mu      sync.Mutex
	added   []string
	deleted []string
}

// normalize drops a search response's took_ms, the one field allowed to
// differ between identical searches (and between a gateway and a node).
func normalize(route int, body []byte) []byte {
	if route == routeSearch {
		if i := bytes.LastIndex(body, []byte(`"took_ms":`)); i >= 0 {
			return body[:i]
		}
	}
	return body
}

var searchPrefix = []byte(`{"hits":[`)

// judge checks one response against the verified bytes (pool requests)
// or the validity rules (ingest searches and writes).
func (o *oracle) judge(req *request, status int, body []byte) verdict {
	switch {
	case req.addID != "":
		if status != 201 {
			return verdictFailed
		}
		if !bytes.Contains(body, []byte(`{"id":"`+req.addID+`"`)) {
			return verdictWrong
		}
		o.mu.Lock()
		o.added = append(o.added, req.addID)
		o.mu.Unlock()
		return verdictOK
	case req.delID != "":
		if status != 204 {
			return verdictFailed
		}
		o.mu.Lock()
		o.deleted = append(o.deleted, req.delID)
		o.mu.Unlock()
		return verdictOK
	}
	if status != 200 {
		return verdictFailed
	}
	if req.key < 0 {
		if !bytes.HasPrefix(body, searchPrefix) {
			return verdictWrong
		}
		return verdictOK
	}
	if !bytes.Equal(normalize(req.route, body), o.verified[req.key]) {
		return verdictWrong
	}
	return verdictOK
}

// expect computes pool entry e's answer by direct calls on the twin.
func expect(ctx context.Context, twin *sbmlcompose.Corpus, e *poolEntry) (any, error) {
	switch e.req.route {
	case routeSearch:
		q, err := sbmlcompose.ParseModelString(e.query)
		if err != nil {
			return nil, err
		}
		cq, err := twin.CompileQuery(q)
		if err != nil {
			return nil, err
		}
		hits, err := twin.SearchCompiledContext(ctx, cq, sbmlcompose.SearchOptions{TopK: e.topK})
		if hits == nil {
			hits = []sbmlcompose.Hit{}
		}
		return hits, err
	case routeCompose:
		q, err := sbmlcompose.ParseModelString(e.query)
		if err != nil {
			return nil, err
		}
		return twin.ComposeWithContext(ctx, e.target, q)
	case routeSimulate:
		if e.ssa {
			return twin.SimulateSSAContext(ctx, e.target, e.sim)
		}
		return twin.SimulateODEContext(ctx, e.target, e.sim)
	case routeCheck:
		return twin.CheckPropertyContext(ctx, e.target, e.formula, e.sim)
	}
	return nil, fmt.Errorf("no oracle for route %s", routeNames[e.req.route])
}

// compare checks a success body against the direct-call answer want
// from expect: search hits byte-identical, compose SBML and stats equal,
// simulation series and check verdicts equal.
func compare(route int, want any, body []byte) error {
	switch route {
	case routeSearch:
		var got struct {
			Hits json.RawMessage `json:"hits"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if w := mustJSON(want); !bytes.Equal(got.Hits, w) {
			return fmt.Errorf("search hits differ from the twin's:\n got %.300s\nwant %.300s", got.Hits, w)
		}
	case routeCompose:
		var got struct {
			SBML  string `json:"sbml"`
			Stats struct {
				Merged, Added, Renamed, Conflicts int
			} `json:"stats"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		res := want.(*sbmlcompose.Result)
		if w := sbmlcompose.ModelToString(res.Model); got.SBML != w {
			return fmt.Errorf("composed SBML differs from the twin's (%d vs %d bytes)", len(got.SBML), len(w))
		}
		s := res.Stats
		if got.Stats.Merged != s.Merged || got.Stats.Added != s.Added || got.Stats.Renamed != s.Renamed || got.Stats.Conflicts != s.Conflicts {
			return fmt.Errorf("compose stats %+v differ from the twin's %+v", got.Stats, s)
		}
	case routeSimulate:
		var got struct {
			Names  []string    `json:"names"`
			Times  []float64   `json:"times"`
			Values [][]float64 `json:"values"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		tr := want.(*sbmlcompose.Trace)
		if !slices.Equal(got.Names, tr.Names) || !slices.Equal(got.Times, tr.Times) || len(got.Values) != len(tr.Values) {
			return fmt.Errorf("simulation series shape differs from the twin's")
		}
		for i := range tr.Values {
			if !slices.Equal(got.Values[i], tr.Values[i]) {
				return fmt.Errorf("simulation values differ from the twin's at point %d", i)
			}
		}
	case routeCheck:
		var got struct {
			Satisfied *bool `json:"satisfied"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Satisfied == nil || *got.Satisfied != want.(bool) {
			return fmt.Errorf("check verdict differs from the twin's %v", want)
		}
	}
	return nil
}

// verifyPool sends every pool request once, untimed, and verifies it
// against direct calls on the twin; the normalized bytes become the
// reference later responses must equal. Each cold search is also sent
// renamed once, which must not change its hits. Ingest, whose corpus
// the writes change, has no pool to verify; its searches are only sent.
func verifyPool(in *inputs, twin *sbmlcompose.Corpus, d *loadgen, o *oracle) error {
	ctx := context.Background()
	o.verified = make([][]byte, len(in.pool))
	var buf bytes.Buffer
	for i := range in.pool {
		e := &in.pool[i]
		status, body, err := d.send(d.base, &e.req, "", &buf)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", e.req.path, err)
		}
		if status != 200 {
			return fmt.Errorf("warm-up %s: status %d: %.300s", e.req.path, status, body)
		}
		if e.req.key < 0 {
			continue
		}
		want, err := expect(ctx, twin, e)
		if err != nil {
			return fmt.Errorf("oracle %s on the twin: %w", e.req.path, err)
		}
		if err := compare(e.req.route, want, body); err != nil {
			return fmt.Errorf("ORACLE MISMATCH in warm-up, %s entry %d: %w", e.req.path, i, err)
		}
		o.verified[i] = bytes.Clone(normalize(e.req.route, body))
	}
	for _, i := range in.cold {
		e := &in.pool[i]
		req := e.req
		req.body = renamed(e, "-warm")
		status, body, err := d.send(d.base, &req, "", &buf)
		if err != nil {
			return fmt.Errorf("warm-up renamed search: %w", err)
		}
		if o.judge(&req, status, body) != verdictOK {
			return fmt.Errorf("ORACLE MISMATCH in warm-up: renamed search %d: status %d: %.300s", i, status, body)
		}
	}
	return nil
}

// checkDurable reopens the ingest data dir and checks that every
// acknowledged add is present and every acknowledged delete absent.
func checkDurable(dir string, o *oracle) error {
	st, err := store.Open(dir, storeOptions(nil))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	gone := map[string]bool{}
	for _, id := range o.deleted {
		gone[id] = true
	}
	c := st.Corpus()
	var miss []string
	for _, id := range o.added {
		if !gone[id] && !c.Has(id) {
			miss = append(miss, "lost add "+id)
		}
	}
	for _, id := range o.deleted {
		if c.Has(id) {
			miss = append(miss, "resurrected delete "+id)
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("close reopened store: %w", err)
	}
	if len(miss) > 0 {
		return fmt.Errorf("%d acknowledged writes not durable, first: %s", len(miss), miss[0])
	}
	fmt.Printf("durability: reopened store holds all %d acknowledged adds and none of %d acknowledged deletes\n", len(o.added), len(o.deleted))
	return nil
}
