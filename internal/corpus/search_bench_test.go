package corpus

import (
	"context"
	"fmt"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/core"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/synonym"
)

// benchCorpus100 builds the same 100-model repository the benchfig
// corpus suite measures (CorpusSearch/size=100), and returns it with a
// clone of its 51st model as the query.
func benchCorpus100(tb testing.TB) (*Corpus, *sbml.Model) {
	tb.Helper()
	c := New(Options{Shards: 4, Workers: 4, QueryCache: -1, Match: core.Options{Synonyms: synonym.Builtin()}})
	var query *sbml.Model
	for i := 0; i < 100; i++ {
		m := biomodels.Generate(biomodels.Config{
			ID:             fmt.Sprintf("bm%04d", i),
			Nodes:          10 + i%9,
			Edges:          14 + i%11,
			Seed:           int64(40000 + 23*i),
			VocabularySize: 300,
			Decorate:       true,
		})
		if _, err := c.Add(m); err != nil {
			tb.Fatal(err)
		}
		if i == 50 {
			query = m.Clone()
		}
	}
	return c, query
}

// BenchmarkSearchHotPath is the serving hot path exactly as an untraced
// caller runs it: compiled query, context carrying no obs.Trace, so
// every stage-span site in SearchCompiledContext and rank takes its
// no-op branch. Its allocs/op is gated by TestSearchAllocs.
func BenchmarkSearchHotPath(b *testing.B) {
	c, query := benchCorpus100(b)
	cq, err := c.CompileQuery(query)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opts := SearchOptions{TopK: 5}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hits, err := c.SearchCompiledContext(ctx, cq, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(hits) == 0 || hits[0].ModelID != query.ID {
			b.Fatalf("search lost the planted hit: %v", hits)
		}
	}
}

// maxSearchAllocs bounds one hot-path search's allocations. A search
// allocates its returned page, the page's Evidence and the scoring pool's
// goroutines — 12 in all here — and nothing per candidate, so one added
// allocation per candidate (100 here) fails the gate. The headroom
// absorbs a pooled scratch lost to a garbage collection mid-measurement.
const maxSearchAllocs = 24

// TestSearchAllocs is the allocation gate of the search hot path.
// Under -race, sync.Pool drops Puts on purpose and the count is not
// exact, so only the search itself runs there.
func TestSearchAllocs(t *testing.T) {
	c, query := benchCorpus100(t)
	cq, err := c.CompileQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := SearchOptions{TopK: 5}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.SearchCompiledContext(ctx, cq, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per search", allocs)
	if !raceEnabled && allocs > maxSearchAllocs {
		t.Fatalf("search allocates %.0f times, want at most %d", allocs, maxSearchAllocs)
	}
}

// BenchmarkSearch1000 mirrors the serving benchmark's search workload
// in-process: 1000 stored models of 8–20 species, 64 fresh queries of the
// same sizes, TopK 10, each query compiled once up front.
func BenchmarkSearch1000(b *testing.B) {
	gen := func(id string, k, n int, seed int64) *sbml.Model {
		nodes := 8 + k*7919%n*13/n
		return biomodels.Generate(biomodels.Config{
			ID: id, Nodes: nodes, Edges: nodes + nodes/2, Seed: seed,
			VocabularySize: 300, Decorate: true,
		})
	}
	c := New(Options{QueryCache: -1, Match: core.Options{Synonyms: synonym.Builtin()}})
	for i := 0; i < 1000; i++ {
		if _, err := c.Add(gen(fmt.Sprintf("m%04d", i), i, 1000, 7_000_021+int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	queries := make([]*CompiledQuery, 64)
	for k := range queries {
		cq, err := c.CompileQuery(gen(fmt.Sprintf("q%02d", k), k, 64, 55_439+int64(k)))
		if err != nil {
			b.Fatal(err)
		}
		queries[k] = cq
	}
	ctx := context.Background()
	opts := SearchOptions{TopK: 10}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.SearchCompiledContext(ctx, queries[i%len(queries)], opts); err != nil {
			b.Fatal(err)
		}
	}
}
