package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"sbmlcompose"
	"sbmlcompose/internal/cluster"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/corpus"
	"sbmlcompose/internal/obs"
	"sbmlcompose/internal/serve"
	"sbmlcompose/internal/store"
	"sbmlcompose/internal/synonym"
)

// serveConfig mirrors sbmlserved's defaults (60s request timeout,
// 128-entry query cache, 1s slow-request threshold) minus its request
// log, which would only measure stderr.
func serveConfig() serve.Config {
	return serve.Config{RequestTimeout: 60 * time.Second}
}

// corpusOptions mirrors sbmlserved's corpus: 4 shards, GOMAXPROCS
// search workers, heavy semantics with the built-in synonym table.
func corpusOptions() corpus.Options {
	return corpus.Options{Shards: 4, Match: core.Options{Synonyms: synonym.Builtin()}}
}

// loopback serves a handler on a 127.0.0.1 listener.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	l := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

// close stops the listener and waits for its serve loop to end.
func (l *loopback) close() {
	_ = l.srv.Close() // closing a server we own; nothing to recover
	<-l.done
}

// system is one serving instance of a workload.
type system struct {
	// handler is the in-process entry point clients reach through front:
	// the node server, or the gateway on cluster_search.
	handler http.Handler
	front   *loopback
	// corpus is the single node's corpus (nil on cluster_search).
	corpus *sbmlcompose.Corpus
	// nodes are the node servers, for their query-cache counters.
	nodes []*serve.Server
	// store, fsyncs and recover (store.Open's wall time) are set on
	// ingest.
	store   *store.Store
	fsyncs  *obs.Histogram
	recover time.Duration
	// hops times the gateway's node requests (cluster_search).
	hops    *hopTracer
	closers []func()
}

// close releases the instance in reverse order of construction.
func (s *system) close() error {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
	if s.store != nil {
		err := s.store.Close()
		s.store = nil
		return err
	}
	return nil
}

// serveNode puts a node server behind its own loopback listener.
func (s *system) serveNode(srv *serve.Server) (*loopback, error) {
	l, err := listen(srv)
	if err != nil {
		return nil, err
	}
	s.nodes = append(s.nodes, srv)
	s.closers = append(s.closers, l.close)
	return l, nil
}

// serveFront exposes h to clients on the front listener.
func (s *system) serveFront(h http.Handler) error {
	l, err := listen(h)
	if err != nil {
		return err
	}
	s.handler, s.front = h, l
	s.closers = append(s.closers, l.close)
	return nil
}

// buildCorpus parses the models and adds them to a fresh corpus.
func buildCorpus(models []stored) (*sbmlcompose.Corpus, error) {
	c := corpus.New(corpusOptions())
	for _, st := range models {
		m, err := sbmlcompose.ParseModelString(st.sbml)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", st.id, err)
		}
		if _, err := c.Add(m); err != nil {
			return nil, fmt.Errorf("add %s: %w", st.id, err)
		}
	}
	return c, nil
}

// newNode is the search and engine set-up: one in-memory node.
func newNode(in *inputs, _ string) (*system, error) {
	c, err := buildCorpus(in.models)
	if err != nil {
		return nil, err
	}
	s := &system{corpus: c}
	srv := serve.New(c, serveConfig())
	s.nodes = append(s.nodes, srv)
	if err := s.serveFront(srv); err != nil {
		return nil, err
	}
	return s, nil
}

// clusterNodes is the cluster_search fan-out.
const clusterNodes = 3

// newCluster is the cluster_search set-up: three in-memory nodes on
// loopback, a gateway over them on its own listener, and the corpus
// loaded through the gateway, which partitions it.
func newCluster(in *inputs, _ string) (*system, error) {
	s := &system{hops: newHopTracer()}
	var urls []string
	for i := 0; i < clusterNodes; i++ {
		l, err := s.serveNode(serve.New(corpus.New(corpusOptions()), serveConfig()))
		if err != nil {
			s.close()
			return nil, err
		}
		urls = append(urls, l.url)
	}
	gw, err := cluster.New(cluster.Options{Nodes: urls, Client: &http.Client{Transport: s.hops}})
	if err != nil {
		s.close()
		return nil, err
	}
	s.closers = append(s.closers, s.hops.base.CloseIdleConnections)
	for _, st := range in.models {
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/models", strings.NewReader(st.sbml)))
		if rec.Code != 201 {
			s.close()
			return nil, fmt.Errorf("load %s through the gateway: %d %s", st.id, rec.Code, rec.Body.String())
		}
	}
	if err := s.serveFront(gw); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// storeOptions is the ingest node's store: sbmlserved's default
// durability (fsync every append, 8 MiB compaction), keeping the raw WAL
// on close so every reopen replays it.
func storeOptions(fsyncs *obs.Histogram) store.Options {
	return store.Options{
		Corpus: corpusOptions(), Fsync: store.FsyncAlways, NoSnapshotOnClose: true,
		Metrics: &store.Metrics{FsyncSeconds: fsyncs},
	}
}

// buildDataDir writes the ingest data dir, untimed: a snapshot of the
// first ingestSnapshot models plus a WAL tail of the rest.
func buildDataDir(in *inputs, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{
		Corpus: corpusOptions(), Fsync: store.FsyncNever, CompactBytes: -1, NoSnapshotOnClose: true,
	})
	if err != nil {
		return err
	}
	c := st.Corpus()
	for i, m := range in.models {
		if i == ingestSnapshot {
			if err := st.Snapshot(); err != nil {
				return errors.Join(err, st.Close())
			}
		}
		parsed, err := sbmlcompose.ParseModelString(m.sbml)
		if err != nil {
			return errors.Join(err, st.Close())
		}
		if _, err := c.Add(parsed); err != nil {
			return errors.Join(err, st.Close())
		}
	}
	return st.Close()
}

// newDurable is the ingest set-up: recover the data dir and serve it.
func newDurable(_ *inputs, dir string) (*system, error) {
	fsyncs := obs.MustHistogram(obs.LatencyBuckets())
	t0 := time.Now()
	st, err := store.Open(dir, storeOptions(fsyncs))
	if err != nil {
		return nil, err
	}
	s := &system{corpus: st.Corpus(), store: st, fsyncs: fsyncs, recover: time.Since(t0)}
	srv := serve.NewPersistent(st, serveConfig())
	s.nodes = append(s.nodes, srv)
	if err := s.serveFront(srv); err != nil {
		return nil, errors.Join(err, st.Close())
	}
	return s, nil
}

// hopTracer is the gateway's node transport: it passes requests to a
// loopback transport and, while a ladder request is registered under
// the X-Request-Id the gateway forwards, records each hop as a span
// ending when the gateway closes the response body.
type hopTracer struct {
	base *http.Transport
	mu   sync.Mutex
	rec  *recorder
	// parent maps a ladder request id to its gateway span.
	parent map[string]int64
}

func newHopTracer() *hopTracer {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	return &hopTracer{base: tr, parent: map[string]int64{}}
}

// watch attributes the hops of request rid to span parent until unwatch.
func (h *hopTracer) watch(rec *recorder, rid string, parent int64) {
	h.mu.Lock()
	h.rec, h.parent[rid] = rec, parent
	h.mu.Unlock()
}

func (h *hopTracer) unwatch(rid string) {
	h.mu.Lock()
	delete(h.parent, rid)
	h.mu.Unlock()
}

func (h *hopTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	rid := req.Header.Get("X-Request-Id")
	h.mu.Lock()
	parent, traced := h.parent[rid]
	rec := h.rec
	h.mu.Unlock()
	if !traced {
		return h.base.RoundTrip(req)
	}
	sp := rec.open("cluster.hop", rid, parent)
	resp, err := h.base.RoundTrip(req)
	if err != nil {
		sp.close()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}
