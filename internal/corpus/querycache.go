package corpus

import "sbmlcompose/internal/lru"

// This file implements the compiled-query LRU behind Search. Search
// would otherwise recompile its query on every call even when a client
// (dashboards, pollers, the benchfig repeated-query loop) issues the same
// query over and over; compilation — synonym canonicalization, math
// patterns, unit reduction, index construction — dwarfs the retrieval
// walk for small queries. The cache is keyed by the query's canonical
// SBML bytes, so two structurally identical uploads hit the same slot and
// any mutation of the caller's model changes the key. Entries are the
// shared, immutable CompiledQuery values CompileQuery returns, so a hit
// also skips rebuilding the query's intern table. A CompiledQuery is a
// pure function of the query and the corpus match options, so a cache hit
// cannot change a ranking — pinned by TestQueryCacheRankingsIdentical.

// queryCache is the shared mutex-guarded LRU (internal/lru) specialized
// to compiled queries.
type queryCache = lru.Cache[*CompiledQuery]

func newQueryCache(max int) *queryCache {
	return lru.New[*CompiledQuery](max)
}
