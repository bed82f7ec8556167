package corpus

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"sbmlcompose/internal/core"
)

// This file implements the scoring half of repository matching: the sparse
// component score matrix a candidate accumulates during retrieval, the
// greedy maximum-weight bipartite assignment that turns the matrix into a
// ranked Hit, and the per-search scratch both run in. Greedy assignment on
// a tier-weighted matrix is the standard repository-matcher shape (score
// matrix + cutoff + assignment); it is deterministic given a total order
// on cells, which the packed cell key below provides.
//
// Components are named by ordinals, never by strings: an entry's comps
// table and a compiled query's comps table hold their component ids
// sorted and deduplicated, so comparing two ordinals of one table orders
// exactly as comparing the ids. A cell packs (tier, query ordinal, target
// ordinal) into one uint64 whose natural order is the assignment's visit
// order — strongest tier first, then query id, then target id — and all
// cells of a search live in pooled scratch, so scoring a candidate
// allocates nothing.

// cell is one score-matrix entry: a (query component, candidate
// component) pair reached through a shared key. key packs tier<<62 |
// q<<31 | t, seq is the cell's retrieval visit order within its
// candidate, and kind indexes the candidate entry's kinds table.
//
// Retrieval appends one cell per shared-key visit, duplicates included.
// Sorting on (key, seq) puts a pair's strongest-tier, first-visited cell
// ahead of its other copies, and the greedy pass then rejects those
// copies through the used-sets, so the assignment — and Evidence.Kind —
// is exactly that of keeping only the strongest tier's first-visited
// cell per pair.
type cell struct {
	key  uint64
	seq  uint32
	kind uint16
}

// ordBits is the width of a component ordinal inside a cell key.
const ordBits = 31

const ordMask = 1<<ordBits - 1

func packCell(tier core.KeyTier, q, t uint32) uint64 {
	return uint64(tier)<<(2*ordBits) | uint64(q)<<ordBits | uint64(t)
}

func (c cell) tier() core.KeyTier { return core.KeyTier(c.key >> (2 * ordBits)) }
func (c cell) q() uint32          { return uint32(c.key>>ordBits) & ordMask }
func (c cell) t() uint32          { return uint32(c.key) & ordMask }

func compareCells(a, b cell) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	return cmp.Compare(a.seq, b.seq)
}

// candidate is one corpus model retrieved for the query with its score
// matrix cells; after assign, cells holds only the accepted ones.
type candidate struct {
	e     *entry
	cells []cell
}

// assigner holds one scoring worker's used-sets, indexed by query and
// target ordinal. Both are all-false between candidates.
type assigner struct {
	usedQ, usedT []bool
}

// assign runs the greedy maximum-weight one-to-one assignment over the
// candidate's cells and returns the summed tier weight and the number of
// accepted pairs. Cells are visited in packed-key order — weight
// descending, then query id, then target id — so the assignment (and
// every ranking built on it) is a pure function of the matrix,
// independent of shard layout and worker count. The accepted cells are
// compacted, in visit order, into the front of cd.cells, which is cut to
// them: the Evidence of a returned hit is built from them without a
// second pass.
func (a *assigner) assign(cd *candidate, nq int) (score float64, matched int) {
	slices.SortFunc(cd.cells, compareCells)
	a.usedQ = grownFalse(a.usedQ, nq)
	a.usedT = grownFalse(a.usedT, len(cd.e.comps))
	acc := cd.cells[:0]
	for _, cl := range cd.cells {
		q, t := cl.q(), cl.t()
		if a.usedQ[q] || a.usedT[t] {
			continue
		}
		a.usedQ[q], a.usedT[t] = true, true
		score += cl.tier().Weight()
		acc = append(acc, cl)
	}
	for _, cl := range acc {
		a.usedQ[cl.q()], a.usedT[cl.t()] = false, false
	}
	cd.cells = acc
	return score, len(acc)
}

// grownFalse returns s with length at least n; every element is false.
// The caller keeps s all-false between uses.
func grownFalse(s []bool, n int) []bool {
	if n <= len(s) {
		return s
	}
	return append(s, make([]bool, n-len(s))...)
}

// evidence renders a scored candidate's accepted cells as Evidence,
// sorted by query then target id. Each query ordinal is accepted at most
// once, so ordering by the key without its tier bits is that order.
func evidence(cq *CompiledQuery, cd *candidate) []Evidence {
	slices.SortFunc(cd.cells, func(a, b cell) int { return cmp.Compare(a.key<<2, b.key<<2) })
	ev := make([]Evidence, len(cd.cells))
	for i, cl := range cd.cells {
		tier := cl.tier()
		ev[i] = Evidence{
			Query:  cq.comps[cl.q()],
			Target: cd.e.comps[cl.t()],
			Kind:   cd.e.kinds[cl.kind],
			Tier:   tier.String(),
			Score:  tier.Weight(),
		}
	}
	return ev
}

// CompareHits is the order of every ranking: score descending, then
// model id ascending. Corpus searches and the cluster gateway's merge of
// per-node rankings both sort with it, so a cluster ranking equals a
// single node's by construction.
func CompareHits(a, b Hit) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return strings.Compare(a.ModelID, b.ModelID)
}

// rankedHit is a scored candidate awaiting the merge: its Hit without
// Evidence, and its index in the search scratch's candidates.
type rankedHit struct {
	Hit
	cand int
}

func compareRanked(a, b rankedHit) int { return CompareHits(a.Hit, b.Hit) }

// selectBest moves the n best hits of rs into rs[:n], sorted, with a
// bounded max-heap on the worst kept hit: O(len(rs) log n) instead of
// sorting everything when only a page is returned.
func selectBest(rs []rankedHit, n int) {
	h := rs[:n]
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for i := n; i < len(rs); i++ {
		if compareRanked(rs[i], h[0]) < 0 {
			h[0], rs[i] = rs[i], h[0]
			siftDown(h, 0)
		}
	}
	slices.SortFunc(h, compareRanked)
}

// siftDown restores the heap order of h below i: every parent ranks no
// better than its children, so h[0] is the worst kept hit.
func siftDown(h []rankedHit, i int) {
	for {
		worst := 2*i + 1
		if worst >= len(h) {
			return
		}
		if r := worst + 1; r < len(h) && compareRanked(h[r], h[worst]) > 0 {
			worst = r
		}
		if compareRanked(h[worst], h[i]) <= 0 {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// searchScratch is the reusable working memory of one search: the
// candidates with their cells, the slot→candidate map of the shard being
// walked, the scored hits and the workers' used-sets. It comes from
// scratchPool, so steady-state searches allocate only their result.
type searchScratch struct {
	cands []candidate
	// slotCand maps a shard slot to its candidate index plus one; zero
	// means the slot's entry is not a candidate yet. It is all-zero
	// between shards.
	slotCand []int32
	ranked   []rankedHit
	workers  []assigner
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// candidateFor returns the candidate of entry e, creating it on e's first
// posting in the current shard. A new candidate reuses the cell capacity
// a previous search left in its scratch slot.
func (s *searchScratch) candidateFor(e *entry) *candidate {
	if i := s.slotCand[e.slot]; i != 0 {
		return &s.cands[i-1]
	}
	n := len(s.cands)
	if n < cap(s.cands) {
		s.cands = s.cands[:n+1]
		s.cands[n].e = e
		s.cands[n].cells = s.cands[n].cells[:0]
	} else {
		s.cands = append(s.cands, candidate{e: e})
	}
	s.slotCand[e.slot] = int32(n + 1)
	return &s.cands[n]
}

// release clears every entry pointer and hit, so pooled scratch keeps no
// removed model alive, and returns s to the pool.
func (s *searchScratch) release() {
	for i := range s.cands {
		s.cands[i].e = nil
	}
	s.cands = s.cands[:0]
	clear(s.ranked)
	s.ranked = s.ranked[:0]
	scratchPool.Put(s)
}
