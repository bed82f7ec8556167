package corpus

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestQueryCacheRankingsIdentical pins the satellite requirement: Search
// through the compiled-query LRU returns rankings (ids, scores, evidence)
// identical to Search with the cache disabled, on cold and warm calls
// alike.
func TestQueryCacheRankingsIdentical(t *testing.T) {
	models := testModels(16)
	cached := New(testOptions(3, 2)) // default QueryCache kicks in
	opts := testOptions(3, 2)
	opts.QueryCache = -1
	uncached := New(opts)
	fill(t, cached, models)
	fill(t, uncached, models)
	if cached.queries == nil || uncached.queries != nil {
		t.Fatalf("cache wiring wrong: cached=%v uncached=%v", cached.queries, uncached.queries)
	}

	sopts := SearchOptions{TopK: -1}
	for _, probe := range []int{0, 5, 11} {
		query := models[probe].Clone()
		want, err := uncached.Search(query, sopts)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := cached.Search(query, sopts)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := cached.Search(query, sopts) // second call hits the LRU
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, want) {
			t.Fatalf("cold cached search diverges for %s:\n got %+v\nwant %+v", query.ID, cold, want)
		}
		if !reflect.DeepEqual(warm, want) {
			t.Fatalf("warm cached search diverges for %s:\n got %+v\nwant %+v", query.ID, warm, want)
		}
	}
	if got := cached.queries.Len(); got != 3 {
		t.Fatalf("cache holds %d queries, want 3", got)
	}

	// A mutated query must be a different cache key: rankings follow the
	// mutation instead of replaying the stale compile.
	query := models[0].Clone()
	if _, err := cached.Search(query, sopts); err != nil {
		t.Fatal(err)
	}
	query.Species = query.Species[:1]
	mutated, err := cached.Search(query, sopts)
	if err != nil {
		t.Fatal(err)
	}
	wantMutated, err := uncached.Search(query, sopts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mutated, wantMutated) {
		t.Fatalf("mutated query served stale cache entry:\n got %+v\nwant %+v", mutated, wantMutated)
	}
}

// TestQueryCacheEvictsLRU checks the bound: the cache never exceeds its
// capacity and evicts the least recently used query.
func TestQueryCacheEvictsLRU(t *testing.T) {
	qc := newQueryCache(2)
	a, b, c := &CompiledQuery{denom: 1}, &CompiledQuery{denom: 2}, &CompiledQuery{denom: 3}
	qc.Put("a", a)
	qc.Put("b", b)
	if _, ok := qc.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	qc.Put("c", c)
	if qc.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", qc.Len())
	}
	if _, ok := qc.Get("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	if got, ok := qc.Get("a"); !ok || got != a {
		t.Fatal("a evicted despite recent use")
	}
	if got, ok := qc.Get("c"); !ok || got != c {
		t.Fatal("c missing after insert")
	}
	// Duplicate put keeps one entry and the newer value.
	c2 := &CompiledQuery{denom: 4}
	qc.Put("c", c2)
	if qc.Len() != 2 {
		t.Fatalf("duplicate put grew the cache: %d", qc.Len())
	}
	if got, _ := qc.Get("c"); got != c2 {
		t.Fatal("duplicate put kept the stale value")
	}
}

// TestQueryCacheConcurrentSearches hammers the cached path from many
// goroutines (race detector coverage) and checks every result matches
// the single-threaded answer.
func TestQueryCacheConcurrentSearches(t *testing.T) {
	models := testModels(12)
	c := New(testOptions(4, 2))
	fill(t, c, models)
	sopts := SearchOptions{TopK: 5}
	want := make([][]Hit, 4)
	for i := range want {
		hits, err := c.Search(models[i], sopts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = hits
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := (g + i) % 4
				hits, err := c.Search(models[q], sopts)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(hits, want[q]) {
					errs <- fmt.Errorf("goroutine %d query %d diverged", g, q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
