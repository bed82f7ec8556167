package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"sbmlcompose"
	"sbmlcompose/internal/biomodels"
)

// Routes of the traffic mixes; a sample's route indexes this table.
const (
	routeSearch = iota
	routeCompose
	routeSimulate
	routeCheck
	routeWrite
	numRoutes
)

var routeNames = [numRoutes]string{"search", "compose", "simulate", "check", "write"}

// request is one generated HTTP request plus what the oracle needs to
// judge its response.
type request struct {
	route  int
	method string
	path   string
	body   []byte
	// key indexes the oracle's verified responses; -1 means the response
	// can only be checked for validity (ingest searches race the writes).
	key int
	// class groups requests of the same cost: the pool entry a request
	// was drawn from, or for ingest writes the add body or delete slot.
	// service_ms takes each class's fastest sample.
	class int
	// addID / delID name the model an ingest write adds or deletes.
	addID, delID string
}

// stored is one generated corpus model.
type stored struct {
	id   string
	sbml string
}

// poolEntry is one distinct request body of a workload's pool plus the
// direct-call inputs its oracle needs.
type poolEntry struct {
	req request
	// query is the submitted model's SBML (search, compose).
	query string
	// target is the stored model id (compose, simulate, check).
	target  string
	sim     sbmlcompose.SimOptions
	ssa     bool
	formula string
	topK    int
	// splice is the body offset just past the query's model id, where
	// renamed inserts a suffix.
	splice int
}

// inputs is everything a workload sends to the program, generated from
// the seed alone.
type inputs struct {
	workload string
	seed     int64
	// models is the corpus the server starts with.
	models []stored
	// pool holds the distinct request bodies the oracle verifies in
	// warm-up; request streams draw from it.
	pool []poolEntry
	// hot and cold index search entries of pool: hot bodies repeat
	// byte-for-byte (query-cache hits), cold ones are sent renamed so
	// every request misses both query caches.
	hot, cold                []int
	compose, simulate, check []int
	// adds are fresh model bodies for ingest writes; the model id comes
	// from the ?id= parameter, so one body serves many writes.
	adds []string
	// next returns stream request i (i >= 0); it is a pure function of
	// the inputs and i, so concurrent workers draw a deterministic stream.
	next func(i int64) request
}

// genModel renders one seeded model as SBML text.
func genModel(id string, nodes int, seed int64) string {
	m := biomodels.Generate(biomodels.Config{
		ID: id, Nodes: nodes, Edges: nodes + nodes/2, Seed: seed,
		VocabularySize: 300, Decorate: true,
	})
	return sbmlcompose.ModelToString(m)
}

// spread returns the k-th of n values spread evenly over [lo, hi] in a
// fixed scrambled order. Sizes and horizons come from it rather than
// from the seed, so every seed gets the same mix of request costs and
// the seed varies only content: names, topology, kinetics.
func spread(k, n, lo, hi int) int {
	return lo + (k*7919%n)*(hi-lo+1)/n
}

// genCorpus generates n stored models with species counts spread over
// [lo, hi].
func genCorpus(seed int64, n, lo, hi int) []stored {
	out := make([]stored, n)
	for i := range out {
		id := fmt.Sprintf("m%04d", i)
		out[i] = stored{id: id, sbml: genModel(id, spread(i, n, lo, hi), seed*1_000_003+int64(i))}
	}
	return out
}

// mustJSON encodes v compactly, as the server does (no HTML escaping).
func mustJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // callers pass maps of strings and finite numbers, or search hits
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
}

// addSearchPool appends n search entries over fresh query models.
func (in *inputs) addSearchPool(prefix string, n int) []int {
	var idx []int
	for k := 0; k < n; k++ {
		id := fmt.Sprintf("%s%02d", prefix, k)
		q := genModel(id, spread(k, n, 8, 20), in.seed*7_919+int64(len(in.pool)))
		body := mustJSON(map[string]any{"sbml": q, "top_k": 10})
		attr := []byte(`id=\"` + id)
		at := bytes.Index(body, attr)
		if at < 0 {
			panic("generated query lacks its model id attribute")
		}
		idx = append(idx, len(in.pool))
		in.pool = append(in.pool, poolEntry{
			req: request{
				route: routeSearch, method: "POST", path: "/v1/search",
				body: body, key: len(in.pool), class: len(in.pool),
			},
			query: q, topK: 10, splice: at + len(attr),
		})
	}
	return idx
}

// renamed returns a cold search body whose query model id carries a
// unique suffix: the server's raw-body cache and the corpus's
// canonical-bytes cache both miss, while the ranking (which never reads
// the query's model id) stays that of the pool entry. The suffix is
// spliced into the encoded body so the generator stays cheap.
func renamed(e *poolEntry, suffix string) []byte {
	b := make([]byte, 0, len(e.req.body)+len(suffix))
	b = append(b, e.req.body[:e.splice]...)
	b = append(b, suffix...)
	return append(b, e.req.body[e.splice:]...)
}

// pick returns the k-th draw from set, walking it in a fixed scrambled
// order. Streams index their pools with it rather than with the seed, so
// every seed sends the same sequence of request costs.
func pick(set []int, k int64) int {
	return set[k*7919%int64(len(set))]
}

// searchRequest is stream request i of a search mix: three in four from
// the hot set, every fourth a cold entry renamed by i.
func (in *inputs) searchRequest(i int64) request {
	if i%4 != 3 {
		return in.pool[pick(in.hot, i-i/4)].req
	}
	e := &in.pool[pick(in.cold, i/4)]
	req := e.req
	req.body = renamed(e, "-r"+strconv.FormatInt(i, 10))
	return req
}

// genSearch builds the search and cluster_search inputs: about 1000
// mixed-size models, a 64-query hot set and 64 cold queries.
func genSearch(name string, seed int64) *inputs {
	in := &inputs{workload: name, seed: seed}
	in.models = genCorpus(seed, 1000, 8, 20)
	in.hot = in.addSearchPool("qh", 64)
	in.cold = in.addSearchPool("qc", 64)
	in.next = in.searchRequest
	return in
}

// genEngine builds the engine inputs: 100 stored models and pools of
// compose (10-60 species), simulate (ODE and SSA) and check requests.
func genEngine(seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{workload: "engine", seed: seed}
	in.models = genCorpus(seed, 100, 10, 30)
	// Each pool's k-th entry targets a fixed model index, so targets'
	// sizes do not depend on the seed either.
	target := func(k int) stored { return in.models[k*37%len(in.models)] }
	add := func(e poolEntry) int {
		e.req.key, e.req.class = len(in.pool), len(in.pool)
		e.req.method, e.req.path = "POST", "/v1/"+routeNames[e.req.route]
		in.pool = append(in.pool, e)
		return e.req.key
	}
	for k := 0; k < 64; k++ {
		q := genModel(fmt.Sprintf("cq%02d", k), spread(k, 64, 10, 60), seed*104_729+int64(k))
		id := target(k).id
		in.compose = append(in.compose, add(poolEntry{
			req:   request{route: routeCompose, body: mustJSON(map[string]any{"id": id, "sbml": q})},
			query: q, target: id,
		}))
	}
	for k := 0; k < 64; k++ {
		id := target(k + 1).id
		e := poolEntry{target: id}
		if k%2 == 0 {
			t1 := float64(spread(k/2, 32, 5, 100)) / 10
			e.sim = sbmlcompose.SimOptions{T1: t1, Step: t1 / 100}
			e.req.body = mustJSON(map[string]any{"id": id, "method": "ode", "t1": t1, "step": t1 / 100})
		} else {
			t1 := float64(spread(k/2, 32, 2, 10)) / 10
			s := r.Int63n(1 << 30)
			e.ssa = true
			e.sim = sbmlcompose.SimOptions{T1: t1, Step: t1 / 50, Seed: s}
			e.req.body = mustJSON(map[string]any{"id": id, "method": "ssa", "t1": t1, "step": t1 / 50, "seed": s})
		}
		e.req.route = routeSimulate
		in.simulate = append(in.simulate, add(e))
	}
	for k := 0; k < 64; k++ {
		st := target(k + 2)
		m, err := sbmlcompose.ParseModelString(st.sbml)
		if err != nil {
			panic(err) // generated SBML
		}
		sp := m.Species[r.Intn(len(m.Species))].ID
		formula := fmt.Sprintf("G({%s >= 0})", sp)
		if k%2 == 1 {
			formula = fmt.Sprintf("F({%s > %.3g})", sp, 0.5+2*r.Float64())
		}
		t1 := float64(spread(k, 64, 5, 50)) / 10
		in.check = append(in.check, add(poolEntry{
			req: request{route: routeCheck, body: mustJSON(map[string]any{
				"id": st.id, "formula": formula, "t1": t1, "step": t1 / 100})},
			target: st.id, formula: formula, sim: sbmlcompose.SimOptions{T1: t1, Step: t1 / 100},
		}))
	}
	in.next = func(i int64) request {
		set := [][]int{in.compose, in.simulate, in.check}[i%3]
		return in.pool[pick(set, i/3)].req
	}
	return in
}

// Ingest sizing: the data dir holds ingestSnapshot models in its
// snapshot and ingestTail more in the WAL tail.
const (
	ingestSnapshot = 400
	ingestTail     = 100
)

// genIngest builds the ingest inputs: the initial corpus, 32 search
// bodies and 64 fresh model bodies. Stream op i is a search for even i;
// odd ops alternate an add of a fresh model and a delete of the oldest
// model still present (initial models first, in seeded order), so the
// corpus size stays steady.
func genIngest(seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{workload: "ingest", seed: seed}
	in.models = genCorpus(seed, ingestSnapshot+ingestTail, 8, 40)
	in.hot = in.addSearchPool("qi", 32)
	for _, k := range in.hot {
		in.pool[k].req.key = -1
	}
	for k := 0; k < 64; k++ {
		in.adds = append(in.adds, genModel(fmt.Sprintf("w%02d", k), spread(k, 64, 8, 40), seed*15_485_863+int64(k)))
	}
	order := r.Perm(len(in.models))
	in.next = func(i int64) request {
		if i%2 == 0 {
			return in.pool[pick(in.hot, i/2)].req
		}
		k := i / 4 // the k-th add and the k-th delete
		slot := int(k % int64(len(in.adds)))
		if i%4 == 1 {
			id := fmt.Sprintf("w%d-%d", seed, k)
			return request{
				route: routeWrite, method: "POST", path: "/v1/models?id=" + id, key: -1,
				class: len(in.pool) + slot, body: []byte(in.adds[slot]), addID: id,
			}
		}
		// Deleting an add from ingestSnapshot+ingestTail writes ago: with
		// at most nproc requests in flight and FIFO dispatch, it has long
		// been acknowledged.
		var id string
		if k < int64(len(order)) {
			id = in.models[order[k]].id
		} else {
			id = fmt.Sprintf("w%d-%d", seed, k-int64(len(order)))
		}
		return request{
			route: routeWrite, method: "DELETE", path: "/v1/models/" + id, key: -1,
			class: len(in.pool) + len(in.adds) + slot, delID: id,
		}
	}
	return in
}

// fingerprint hashes every generated input the program receives: the
// corpus, the request pools and the first 4096 stream requests.
func (in *inputs) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%d\n", in.workload, in.seed)
	for _, m := range in.models {
		fmt.Fprintf(h, "%s\n%s\n", m.id, m.sbml)
	}
	for _, e := range in.pool {
		fmt.Fprintf(h, "%s %s\n%s\n", e.req.method, e.req.path, e.req.body)
	}
	for _, a := range in.adds {
		fmt.Fprintf(h, "%s\n", a)
	}
	for i := int64(0); i < 4096; i++ {
		req := in.next(i)
		fmt.Fprintf(h, "%s %s\n%s\n", req.method, req.path, req.body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
