package corpus

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sbmlcompose/internal/biomodels"
	"sbmlcompose/internal/sbml"
	"sbmlcompose/internal/units"
)

// updateGolden rewrites testdata/rankings.golden from the current ranking
// code: go test ./internal/corpus -run TestRankingsMatchGolden -update-golden.
// Only do so for an intended ranking change; the file exists to catch
// unintended ones.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/rankings.golden")

const goldenPath = "testdata/rankings.golden"

// goldenOptionSets are the search options every golden query runs under:
// the default page, the unbounded ranking, a later page, a cutoff that
// keeps only exact and synonym evidence, and a cutoff plus a hit floor.
var goldenOptionSets = []struct {
	name string
	opts SearchOptions
}{
	{"top10", SearchOptions{TopK: 10}},
	{"all", SearchOptions{TopK: -1}},
	{"offset7", SearchOptions{TopK: 10, Offset: 7}},
	{"cutoff2.5", SearchOptions{TopK: 10, Cutoff: 2.5}},
	{"cutoff1.5-min3", SearchOptions{TopK: 10, Cutoff: 1.5, MinScore: 3}},
}

// dualModel is a hand-built model whose component id "x" names a
// compartment, a species and a unit definition at once, and whose species
// "atp" is named so that its synonym-name and id-as-name keys coincide.
// Against a query built the same way, the (x, x) cell is reached through
// the compartment and species id keys — two keys of equal tier and
// different kinds — and through the weaker unit key, while the (atp, atp)
// cell is reached through several keys of one kind. Evidence.Kind must
// come from the strongest tier's first-visited posting.
func dualModel(id string, extra string) *sbml.Model {
	m := sbml.NewModel(id)
	for _, c := range []string{"cell", "x"} {
		m.Compartments = append(m.Compartments, &sbml.Compartment{
			ID: c, SpatialDimensions: 3, Size: 1, HasSize: true, Constant: true,
		})
	}
	for _, s := range []struct{ id, name string }{{"x", "x"}, {"atp", "ATP"}, {extra, extra}} {
		m.Species = append(m.Species, &sbml.Species{
			ID: s.id, Name: s.name, Compartment: "cell",
			InitialConcentration: 1, HasInitialConcentration: true,
		})
	}
	for _, u := range []struct {
		id   string
		unit units.Unit
	}{{"x", units.NewUnit("mole")}, {"conc_" + extra, units.NewUnit("litre")}} {
		m.UnitDefinitions = append(m.UnitDefinitions, &sbml.UnitDefinition{ID: u.id, Units: []units.Unit{u.unit}})
	}
	return m
}

// goldenModel generates one seeded corpus or query model in the size
// range the serving benchmark uses.
func goldenModel(id string, k int, seed int64) *sbml.Model {
	nodes := 8 + k*7%13
	return biomodels.Generate(biomodels.Config{
		ID: id, Nodes: nodes, Edges: nodes + nodes/2, Seed: seed,
		VocabularySize: 300, Decorate: true,
	})
}

// goldenCorpus fills c with about 200 seeded models plus two hand-built
// ones, removing an earlier model after every seventh add and re-adding
// removed ids later, so the index has seen deletions and reused ids. It
// returns the queries: fresh models, stored and removed corpus members,
// and the hand-built dual query.
func goldenCorpus(t *testing.T, c *Corpus) []*sbml.Model {
	t.Helper()
	add := func(m *sbml.Model) {
		t.Helper()
		if _, err := c.Add(m.Clone()); err != nil {
			t.Fatalf("Add(%s): %v", m.ID, err)
		}
	}
	var models []*sbml.Model
	var removed []*sbml.Model
	for i := 0; i < 220; i++ {
		m := goldenModel(fmt.Sprintf("g%03d", i), i, int64(70001+31*i))
		models = append(models, m)
		add(m)
		if i%7 == 6 {
			victim := models[i-5]
			if ok, err := c.Remove(victim.ID); err != nil || !ok {
				t.Fatalf("Remove(%s) = %v, %v", victim.ID, ok, err)
			}
			removed = append(removed, victim)
		}
		if i%11 == 10 && len(removed) > 0 {
			add(removed[0])
			removed = removed[1:]
		}
	}
	add(dualModel("dual_a", "gtp"))
	add(dualModel("dual_b", "nadh"))

	var queries []*sbml.Model
	for k := 0; k < 24; k++ {
		queries = append(queries, goldenModel(fmt.Sprintf("q%02d", k), k, int64(90001+17*k)))
	}
	for _, i := range []int{3, 50, 101, 219} {
		queries = append(queries, models[i].Clone())
	}
	for _, m := range removed[:2] {
		queries = append(queries, m.Clone())
	}
	queries = append(queries, dualModel("dual_q", "gtp"), dualModel("dual_r", "adp"))
	return queries
}

// goldenLines renders one line per (query, option set): the query id, the
// option-set name and the SHA-256 of the JSON-encoded hits.
func goldenLines(t *testing.T, search func(*sbml.Model, SearchOptions) ([]Hit, error), queries []*sbml.Model) []string {
	t.Helper()
	var lines []string
	for _, q := range queries {
		for _, set := range goldenOptionSets {
			hits, err := search(q.Clone(), set.opts)
			if err != nil {
				t.Fatalf("search %s/%s: %v", q.ID, set.name, err)
			}
			b, err := json.Marshal(hits)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			lines = append(lines, fmt.Sprintf("%s %s %s", q.ID, set.name, hex.EncodeToString(sum[:])))
		}
	}
	return lines
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestRankingsMatchGolden pins search rankings across code changes: the
// determinism and cache tests compare the ranking code only with itself,
// so this is the test that catches a changed ranking. Every layout —
// several shard and worker counts, Search through the query cache and
// SearchCompiled — must reproduce the committed hashes.
func TestRankingsMatchGolden(t *testing.T) {
	type layout struct {
		name     string
		opts     Options
		compiled bool
	}
	layouts := []layout{
		{"shards4-workers2", testOptions(4, 2), false},
		{"shards1-workers1-compiled", testOptions(1, 1), true},
		{"shards3-workers8-nocache", func() Options { o := testOptions(3, 8); o.QueryCache = -1; return o }(), false},
	}
	var want []string
	if !*updateGolden {
		want = readGolden(t)
	}
	for i, l := range layouts {
		c := New(l.opts)
		queries := goldenCorpus(t, c)
		search := c.Search
		if l.compiled {
			search = func(q *sbml.Model, o SearchOptions) ([]Hit, error) {
				cq, err := c.CompileQuery(q)
				if err != nil {
					return nil, err
				}
				return c.SearchCompiled(cq, o)
			}
		}
		got := goldenLines(t, search, queries)
		if i == 0 && *updateGolden {
			header := "# SHA-256 of the JSON hits per (query, option set); see golden_test.go.\n"
			if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath, []byte(header+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d golden lines, want %d", l.name, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("%s: ranking changed:\n got %s\nwant %s", l.name, got[j], want[j])
			}
		}
	}
}

// TestDualKindEvidence spells out what the golden file pins for the
// hand-built models: the (x, x) correspondence is reported once, on its
// strongest tier, under the kind of the posting visited first.
func TestDualKindEvidence(t *testing.T) {
	c := New(testOptions(2, 2))
	if _, err := c.Add(dualModel("dual_a", "gtp")); err != nil {
		t.Fatal(err)
	}
	hits, err := c.Search(dualModel("dual_q", "gtp"), SearchOptions{TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("got %d hits, want 1", len(hits))
	}
	var got []string
	for _, ev := range hits[0].Evidence {
		got = append(got, fmt.Sprintf("%s>%s %s %s", ev.Query, ev.Target, ev.Kind, ev.Tier))
	}
	want := []string{
		"atp>atp species exact-id",
		"cell>cell compartment exact-id",
		"conc_gtp>conc_gtp unitdef unit-compatible",
		"gtp>gtp species exact-id",
		"x>x compartment exact-id",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("evidence:\n got %q\nwant %q", got, want)
	}
}
