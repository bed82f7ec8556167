package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"sbmlcompose"
	"sbmlcompose/internal/obs"
	"sbmlcompose/internal/serve"
)

// ladderSample is how many requests of each route the ladder replays.
// With 200, p95 is the highest percentile with ten samples beyond it.
const ladderSample = 200

// ladder replays a fixed seeded sample of each route's requests
// sequentially from one client, down the rungs: direct layer calls in
// handler order under one root span, in-process ServeHTTP, the loopback
// socket, and on cluster_search the gateway. Each rung's request is
// renamed apart from the others so none is served from a cache another
// rung filled.
type ladder struct {
	sys *system
	in  *inputs
	d   *loadgen
	or  *oracle
	rec *recorder
	// node is the single node the direct, in-process and socket rungs
	// use; on cluster_search it is a node over the twin corpus.
	node       *sbmlcompose.Corpus
	nodeServer http.Handler
	nodeURL    string
	// twin is the in-memory twin of a durable node (ingest).
	twin *sbmlcompose.Corpus

	// rungs[route][rung] holds each sampled request's duration per rung.
	rungs [numRoutes]map[string][]time.Duration
	// appends are durable minus in-memory Add/Remove times (ingest).
	appends        []time.Duration
	walBytes       int64
	userBytes      int64
	conflicts      int
	composes       int
	points, runs   int
	attempted, bad int
	firstBad       string
}

func (l *ladder) fail(format string, args ...any) {
	l.bad++
	if l.firstBad == "" {
		l.firstBad = fmt.Sprintf(format, args...)
	}
}

// rung times one rung of request rid as a root span.
func (l *ladder) rung(route int, name, rid string, f func(id int64)) {
	sp := l.rec.open("rung."+name, rid, 0)
	f(sp.s.ID)
	s := sp.close()
	if l.rungs[route] == nil {
		l.rungs[route] = map[string][]time.Duration{}
	}
	l.rungs[route][name] = append(l.rungs[route][name], s.dur())
}

// call times one direct layer call as a child span.
func (l *ladder) call(name, rid string, parent int64, f func()) {
	sp := l.rec.open(name, rid, parent)
	f()
	sp.close()
}

// stages records an obs.Trace's stages as child spans of parent.
func (l *ladder) stages(tr *obs.Trace, prefix, rid string, parent int64) {
	for _, st := range tr.Stages() {
		start := l.rec.at(st.Start)
		l.rec.add(span{Parent: parent, Req: rid, Name: prefix + st.Name, Start: start, End: start + int64(st.Duration)})
	}
}

// inproc serves req on h in-process and returns status and body.
func inproc(h http.Handler, req *request, rid string) (int, []byte) {
	r := httptest.NewRequest(req.method, req.path, bytes.NewReader(req.body))
	if rid != "" {
		r.Header.Set("X-Request-Id", rid)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

// do sends req on an HTTP rung: in-process on the node or gateway, or
// over the node's or gateway's socket. Gateway hops are attributed to
// the rung's span.
func (l *ladder) do(rung string, span int64, req *request, rid string) (int, []byte, error) {
	switch rung {
	case "inproc":
		status, body := inproc(l.nodeServer, req, rid)
		return status, body, nil
	case "gateway":
		l.sys.hops.watch(l.rec, rid, span)
		defer l.sys.hops.unwatch(rid)
		status, body := inproc(l.sys.handler, req, rid)
		return status, body, nil
	case "socket":
		return l.d.send(l.nodeURL, req, rid, new(bytes.Buffer))
	default: // gateway_socket
		return l.d.send(l.sys.front.url, req, rid, new(bytes.Buffer))
	}
}

// http runs one HTTP rung of request rid, sending reqs in order as one
// sample, and checks each response.
func (l *ladder) http(route int, rung, rid string, check func(req *request, status int, body []byte) error, reqs ...request) {
	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make([]reply, len(reqs))
	l.attempted += len(reqs)
	l.rung(route, rung, rid, func(id int64) {
		for i := range reqs {
			r := &replies[i]
			r.status, r.body, r.err = l.do(rung, id, &reqs[i], rid)
		}
	})
	for i, r := range replies {
		err := r.err
		if err == nil {
			err = check(&reqs[i], r.status, r.body)
		}
		if err != nil {
			l.fail("ladder %s %s rung %s: %v", routeNames[route], rid, rung, err)
		}
	}
}

// searches climbs the ladder with renamed variants of the pool's search
// entries. Verified entries must return their verified hits on every
// rung, and odd samples climb the HTTP rungs before the direct one so
// neither side always finds the caches the other warmed. Unverified
// (ingest) entries climb direct first and every rung must return the
// direct rung's hits.
func (l *ladder) searches(entries []int) {
	ctx := context.Background()
	for k := 0; k < ladderSample; k++ {
		e := &l.in.pool[entries[k%len(entries)]]
		rid := fmt.Sprintf("L-search-%d", k)
		var hits []sbmlcompose.Hit
		direct := func() {
			var err error
			l.attempted++
			l.rung(routeSearch, "direct", rid, func(root int64) {
				var q *sbmlcompose.Model
				l.call("sbml.parse", rid, root, func() { q, err = sbmlcompose.ParseModelString(e.query) })
				if err != nil {
					return
				}
				q.ID += "-Ld" + fmt.Sprint(k)
				var cq *sbmlcompose.CompiledQuery
				l.call("corpus.compile", rid, root, func() { cq, err = l.node.CompileQuery(q) })
				if err != nil {
					return
				}
				tr := obs.NewTrace()
				sp := l.rec.open("corpus.search", rid, root)
				hits, err = l.node.SearchCompiledContext(obs.NewContext(ctx, tr), cq, sbmlcompose.SearchOptions{TopK: e.topK})
				sp.close()
				l.stages(tr, "corpus.", rid, sp.s.ID)
			})
			if hits == nil {
				hits = []sbmlcompose.Hit{}
			}
			want := append([]byte(`{"hits":`), mustJSON(hits)...)
			if err == nil && e.req.key >= 0 && !bytes.HasPrefix(l.or.verified[e.req.key], want) {
				err = fmt.Errorf("direct hits differ from the oracle's")
			}
			if err != nil {
				l.fail("ladder search %s direct: %v", rid, err)
			}
		}
		check := func(_ *request, status int, body []byte) error {
			if status != 200 {
				return fmt.Errorf("status %d", status)
			}
			if e.req.key >= 0 {
				if !bytes.Equal(normalize(routeSearch, body), l.or.verified[e.req.key]) {
					return fmt.Errorf("hits differ from the verified response")
				}
				return nil
			}
			return compare(routeSearch, hits, body)
		}
		rungs := []string{"inproc", "socket"}
		if l.sys.hops != nil {
			rungs = append(rungs, "gateway", "gateway_socket")
		}
		overHTTP := func() {
			for _, rung := range rungs {
				req := e.req
				req.body = renamed(e, fmt.Sprintf("-L%s%d", rung[:1]+rung[len(rung)-1:], k))
				l.http(routeSearch, rung, rid, check, req)
			}
		}
		if e.req.key >= 0 && k%2 == 1 {
			overHTTP()
			direct()
		} else {
			direct()
			overHTTP()
		}
	}
}

// engine climbs the ladder with the compose, simulate and check pools.
// Direct answers must agree with the oracle, and HTTP rungs must return
// the verified bytes. Odd samples climb the HTTP rungs first.
func (l *ladder) engine() {
	ctx := context.Background()
	for _, set := range [][]int{l.in.compose, l.in.simulate, l.in.check} {
		for k := 0; k < ladderSample; k++ {
			e := &l.in.pool[set[k%len(set)]]
			route := e.req.route
			rid := fmt.Sprintf("L-%s-%d", routeNames[route], k)
			check := func(_ *request, status int, body []byte) error {
				if status != 200 || !bytes.Equal(body, l.or.verified[e.req.key]) {
					return fmt.Errorf("status %d, body differs from the verified response", status)
				}
				return nil
			}
			if k%2 == 1 {
				l.http(route, "inproc", rid, check, e.req)
				l.http(route, "socket", rid, check, e.req)
			}
			var want any
			var err error
			l.attempted++
			l.rung(route, "direct", rid, func(root int64) {
				switch route {
				case routeCompose:
					var q *sbmlcompose.Model
					l.call("sbml.parse", rid, root, func() { q, err = sbmlcompose.ParseModelString(e.query) })
					if err != nil {
						return
					}
					var res *sbmlcompose.Result
					l.call("core.compose", rid, root, func() { res, err = l.node.ComposeWithContext(ctx, e.target, q) })
					if err != nil {
						return
					}
					l.call("sbml.write", rid, root, func() { _ = sbmlcompose.ModelToString(res.Model) })
					l.conflicts += res.Stats.Conflicts
					l.composes++
					want = res
				case routeSimulate:
					var tr *sbmlcompose.Trace
					if e.ssa {
						l.call("sim.ssa", rid, root, func() { tr, err = l.node.SimulateSSAContext(ctx, e.target, e.sim) })
					} else {
						l.call("sim.ode", rid, root, func() { tr, err = l.node.SimulateODEContext(ctx, e.target, e.sim) })
					}
					if err == nil {
						l.points += len(tr.Times)
						l.runs++
						want = tr
					}
				case routeCheck:
					tr := obs.NewTrace()
					var sat bool
					sp := l.rec.open("mc2.check", rid, root)
					sat, err = l.node.CheckPropertyContext(obs.NewContext(ctx, tr), e.target, e.formula, e.sim)
					sp.close()
					l.stages(tr, "mc2.stage.", rid, sp.s.ID)
					want = sat
				}
			})
			if err == nil {
				err = compare(route, want, l.or.verified[e.req.key])
			}
			if err != nil {
				l.fail("ladder %s %s direct: %v", routeNames[route], rid, err)
			}
			if k%2 == 0 {
				l.http(route, "inproc", rid, check, e.req)
				l.http(route, "socket", rid, check, e.req)
			}
		}
	}
}

// writes climbs the ladder with fresh models, each added and deleted
// again at every rung: durably on the node's corpus, then on the
// in-memory twin, then through ServeHTTP and the socket.
func (l *ladder) writes() {
	st := l.sys.store
	for k := 0; k < ladderSample; k++ {
		body := l.in.adds[k%len(l.in.adds)]
		rid := fmt.Sprintf("L-write-%d", k)
		id := fmt.Sprintf("Ld%d-%d", l.in.seed, k)
		var durable, memory [2]time.Duration
		var err error
		l.attempted++
		before := st.Status()
		l.rung(routeWrite, "direct", rid, func(root int64) {
			var m *sbmlcompose.Model
			l.call("sbml.parse", rid, root, func() { m, err = sbmlcompose.ParseModelString(body) })
			if err != nil {
				return
			}
			m.ID = id
			sp := l.rec.open("store.add", rid, root)
			_, err = l.node.Add(m)
			durable[0] = sp.close().dur()
			if err != nil {
				return
			}
			var ok bool
			sp = l.rec.open("store.remove", rid, root)
			ok, err = l.node.Remove(id)
			durable[1] = sp.close().dur()
			if err == nil && !ok {
				err = fmt.Errorf("durable remove of %s found nothing", id)
			}
		})
		if err != nil {
			l.fail("ladder write %s direct: %v", rid, err)
			continue
		}
		// A background compaction resets the tail; skip writes it overlaps.
		if after := st.Status(); after.Snapshots == before.Snapshots && after.TailBytes >= before.TailBytes {
			l.walBytes += after.TailBytes - before.TailBytes
			l.userBytes += int64(len(body))
		}
		l.or.mu.Lock()
		l.or.added = append(l.or.added, id)
		l.or.deleted = append(l.or.deleted, id)
		l.or.mu.Unlock()
		m, err := sbmlcompose.ParseModelString(body)
		if err != nil {
			l.fail("ladder write %s: %v", rid, err)
			continue
		}
		m.ID = id
		l.rung(routeWrite, "memory", rid, func(root int64) {
			sp := l.rec.open("corpus.add", rid, root)
			_, err = l.twin.Add(m)
			memory[0] = sp.close().dur()
			sp = l.rec.open("corpus.remove", rid, root)
			_, err2 := l.twin.Remove(id)
			memory[1] = sp.close().dur()
			if err == nil {
				err = err2
			}
		})
		if err != nil {
			l.fail("ladder write %s in-memory twin: %v", rid, err)
			continue
		}
		l.appends = append(l.appends, durable[0]-memory[0], durable[1]-memory[1])
		judge := func(req *request, status int, body []byte) error {
			if v := l.or.judge(req, status, body); v != verdictOK {
				return fmt.Errorf("status %d: %.200s", status, body)
			}
			return nil
		}
		for _, rung := range []string{"inproc", "socket"} {
			hid := fmt.Sprintf("L%s%d-%d", rung[:1], l.in.seed, k)
			l.http(routeWrite, rung, rid, judge,
				request{route: routeWrite, method: "POST", path: "/v1/models?id=" + hid, body: []byte(body), addID: hid, key: -1},
				request{route: routeWrite, method: "DELETE", path: "/v1/models/" + hid, delID: hid, key: -1})
		}
	}
}

// cacheHits sums the nodes' query-cache hit counters.
func cacheHits(nodes []*serve.Server) (int64, error) {
	var total int64
	for _, n := range nodes {
		status, body := inproc(n, &request{method: "GET", path: "/v1/healthz"}, "")
		var h struct {
			QueryCacheHits int64 `json:"query_cache_hits"`
		}
		if status != 200 {
			return 0, fmt.Errorf("healthz: status %d", status)
		}
		if err := json.Unmarshal(body, &h); err != nil {
			return 0, fmt.Errorf("healthz: %w", err)
		}
		total += h.QueryCacheHits
	}
	return total, nil
}

// diffMedian returns the median over requests of rung a minus rung b.
func diffMedian(a, b []time.Duration) float64 {
	n := min(len(a), len(b))
	xs := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = ms(a[i] - b[i])
	}
	return medianf(xs)
}

// metrics reduces the ladder's spans and rung times to the per-layer
// metrics it owns; a layer the workload does not exercise reads 0.
func (l *ladder) metrics(m map[string]float64) {
	spans := l.rec.snapshot()
	self := selfTimes(spans)
	byName := map[string][]time.Duration{}
	hops := map[int64][]time.Duration{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.dur())
		if s.Name == "cluster.hop" {
			hops[s.Parent] = append(hops[s.Parent], s.dur())
		}
	}
	med := func(name string) float64 { return ms(newDist(byName[name]).quantile(0.5)) }
	for r, name := range routeNames {
		rungs := l.rungs[r]
		if rungs == nil {
			continue
		}
		m["serve."+name+"_self_ms"] = diffMedian(rungs["inproc"], rungs["direct"])
		m["serve."+name+"_socket_ms"] = diffMedian(rungs["socket"], rungs["inproc"])
	}
	m["sbml.parse_ms"] = med("sbml.parse")
	m["sbml.write_ms"] = med("sbml.write")
	m["corpus.compile_ms"] = med("corpus.compile")
	search := newDist(byName["corpus.search"])
	m["corpus.search_p50_ms"] = ms(search.quantile(0.5))
	m["corpus.search_p95_ms"] = ms(search.quantile(0.95))
	m["corpus.retrieve_ms"] = med("corpus.retrieve")
	m["corpus.score_ms"] = med("corpus.score")
	m["corpus.merge_ms"] = med("corpus.merge")
	m["corpus.add_ms"] = med("corpus.add")
	m["corpus.remove_ms"] = med("corpus.remove")
	m["core.compose_ms"] = med("core.compose")
	if l.composes > 0 {
		m["core.conflicts_per_compose"] = float64(l.conflicts) / float64(l.composes)
	}
	m["sim.ode_ms"] = med("sim.ode")
	m["sim.ssa_ms"] = med("sim.ssa")
	if l.runs > 0 {
		m["sim.points_per_run"] = float64(l.points) / float64(l.runs)
	}
	m["mc2.check_ms"] = med("mc2.check")
	appends := newDist(l.appends)
	m["store.append_p50_ms"] = ms(appends.quantile(0.5))
	m["store.append_p95_ms"] = ms(appends.quantile(0.95))
	if l.userBytes > 0 {
		m["store.wal_bytes_per_user_byte"] = float64(l.walBytes) / float64(l.userBytes)
	}
	if gws := byName["rung.gateway"]; len(gws) > 0 {
		var selfs, slowest []time.Duration
		nhops := 0
		for _, s := range spans {
			if s.Name != "rung.gateway" {
				continue
			}
			selfs = append(selfs, self[s.ID])
			nhops += len(hops[s.ID])
			if h := hops[s.ID]; len(h) > 0 {
				slowest = append(slowest, slices.Max(h))
			}
		}
		m["cluster.self_ms"] = ms(newDist(selfs).quantile(0.5))
		m["cluster.hop_p50_ms"] = med("cluster.hop")
		m["cluster.slowest_hop_ms"] = ms(newDist(slowest).quantile(0.5))
		m["cluster.hops_per_search"] = float64(nhops) / float64(len(gws))
	}
}

// climb runs the workload's ladder. cluster_search's single-node rungs
// run on a node over the twin corpus, so they line up with the gateway
// rungs over the same models.
func climb(l *ladder, w *workload, twin *sbmlcompose.Corpus) error {
	switch w.name {
	case "search":
		l.searches(l.in.cold)
	case "cluster_search":
		srv := serve.New(twin, serveConfig())
		lb, err := listen(srv)
		if err != nil {
			return err
		}
		defer lb.close()
		l.node, l.nodeServer, l.nodeURL = twin, srv, lb.url
		l.searches(l.in.cold)
	case "engine":
		l.engine()
	case "ingest":
		var err error
		if l.twin, err = buildCorpus(l.in.models); err != nil {
			return err
		}
		l.writes()
		l.searches(l.in.hot)
	}
	return nil
}
