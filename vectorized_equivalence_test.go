package queryopt

// vectorized_equivalence_test.go checks the batch operators, which are the
// engine's only implementation of table and index scans, filters,
// projections, hash joins and hash aggregation. For the random query corpus
// and for a table of hand-written shapes the corpus never emits (predicates,
// select items and aggregate arguments without a typed kernel, DISTINCT
// aggregates, join residuals, FULL OUTER), answers must equal the naive
// reference evaluator's, with floats compared in exact hexadecimal form, at
// parallelism 1, 4 and 8. Every executed node of those six kinds must report
// that it ran on the batch path.

import (
	"math/rand"
	"strings"
	"testing"
)

// isBatchOp reports whether an EXPLAIN operator line names one of the six
// batch operators (hash-* covers every hash join kind and hash-group-by).
func isBatchOp(op string) bool {
	for _, p := range []string{"table-scan", "index-scan", "filter", "project", "hash-"} {
		if strings.HasPrefix(op, p) {
			return true
		}
	}
	return false
}

// assertBatchPath fails for every executed batch-operator node that is not
// marked vectorized, and returns the executed operator lines.
func assertBatchPath(t *testing.T, an *PlanAnalysis, label string) []string {
	t.Helper()
	var ops []string
	an.Root.Walk(func(n *NodeAnalysis) {
		if !n.Executed {
			return
		}
		ops = append(ops, n.Op)
		if isBatchOp(n.Op) && !n.Vectorized {
			t.Errorf("%s: %s ran without vectorized=true\n%s", label, n.Op, an.Text)
		}
	})
	return ops
}

// orderedRows renders rows in result order, floats in exact hex.
func orderedRows(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = exactRow(r)
	}
	return strings.Join(rows, ";")
}

// midRandSchema is the random schema with r just past the morsel threshold,
// so r's scans, probes and aggregations fan out, while t and u stay small
// enough for the reference evaluator's nested-loop joins.
func midRandSchema(t *testing.T, opts Options, seed int64) *Engine {
	return sizedRandSchema(t, opts, seed, 2200, 200, 50)
}

// TestVectorizedQueryEquivalence: over the random corpus, engines at
// parallelism 1, 4 and 8 agree with the reference evaluator on the multiset
// of rows (and on row order whenever the query has an ORDER BY), and every
// scan, filter, projection, hash join and hash aggregation runs batched.
func TestVectorizedQueryEquivalence(t *testing.T) {
	const trials = 25
	degrees := []int{1, 4, 8}
	for seed := int64(1); seed <= 2; seed++ {
		ref := midRandSchema(t, Options{Optimizer: Reference}, seed)
		engines := make([]*Engine, len(degrees))
		for i, dg := range degrees {
			engines[i] = midRandSchema(t, Options{Optimizer: SystemR, Parallelism: dg}, seed)
		}
		rng := rand.New(rand.NewSource(seed * 77))
		for trial := 0; trial < trials; trial++ {
			q := randQuery(rng)
			res, err := ref.Exec(q)
			if err != nil {
				t.Fatalf("seed %d trial %d reference: %v\nquery: %s", seed, trial, err, q)
			}
			baseline := strings.Join(exactRows(res), ";")
			ordered := strings.Contains(q, "ORDER BY")
			for i, dg := range degrees {
				label := "seed " + string(rune('0'+seed)) + " degree " + string(rune('0'+dg))
				vres, an, err := engines[i].QueryAnalyze(q)
				if err != nil {
					t.Fatalf("%s trial %d: %v\nquery: %s", label, trial, err, q)
				}
				if got := strings.Join(exactRows(vres), ";"); got != baseline {
					t.Fatalf("%s trial %d: disagrees with the reference\nquery: %s\nref: %.500v\ngot: %.500v\nplan:\n%s",
						label, trial, q, baseline, got, vres.Plan)
				}
				if ordered && orderedRows(vres) != orderedRows(res) {
					t.Fatalf("%s trial %d: row order differs under ORDER BY\nquery: %s\nplan:\n%s", label, trial, q, vres.Plan)
				}
				assertBatchPath(t, an, label+" query "+q)
			}
		}
	}
}

// TestBatchOperatorShapes runs shapes whose predicates, select items or
// aggregates have no typed kernel through the batch operators, over memory
// and disk storage at parallelism 1, 4 and 8.
func TestBatchOperatorShapes(t *testing.T) {
	shapes := []struct {
		name, q string
		needs   string // an operator the plan must contain
	}{
		{"in-list", "SELECT x.pk, x.a FROM r x WHERE x.a IN (1, 3, 5) AND x.f > 10.5", "table-scan"},
		{"not-in-list", "SELECT x.pk, x.s FROM r x WHERE x.s NOT IN ('ant', 'cat')", "table-scan"},
		{"like", "SELECT x.pk, x.s FROM r x WHERE x.s LIKE '%e%'", "table-scan"},
		{"or-across-columns", "SELECT x.pk FROM r x WHERE x.a < 3 OR x.f > 200.5", "table-scan"},
		{"index-scan-residual", "SELECT x.pk, x.a FROM r x WHERE x.pk BETWEEN 100 AND 160 AND (x.s LIKE 'b%' OR x.f IS NULL)", "index-scan"},
		{"arith-select-items", "SELECT x.pk, x.a * 2 + 1, x.f / 4, x.a - x.fk FROM r x WHERE x.pk < 3000", "project"},
		{"sum-product", "SELECT x.s, SUM(x.a * x.f), AVG(x.a + 1), COUNT(*) FROM r x GROUP BY x.s", "hash-group-by"},
		{"scalar-sum-product", "SELECT SUM(x.a * x.fk), MAX(x.f - x.a) FROM r x", "hash-group-by"},
		{"count-distinct", "SELECT x.a, COUNT(DISTINCT x.s), SUM(DISTINCT x.fk) FROM r x GROUP BY x.a", "hash-group-by"},
		{"join-residual", "SELECT x.pk, y.pk FROM r x JOIN t y ON x.a = y.fk AND x.f < y.f", "hash-inner"},
		{"left-join-residual", "SELECT x.pk, y.pk FROM r x LEFT JOIN t y ON x.a = y.fk AND x.f + 100 > y.f", "hash-left"},
		{"full-outer", "SELECT x.pk, y.pk FROM r x FULL OUTER JOIN t y ON x.fk = y.pk", "hash-full"},
		{"ordered-computed", "SELECT x.pk, x.a * 3 FROM r x WHERE x.s LIKE '%a%' ORDER BY x.pk", "project"},
	}
	storages := []struct {
		name string
		opts func() Options
	}{
		{"memory", func() Options { return Options{} }},
		{"disk", func() Options { return Options{StorageDir: t.TempDir(), SegmentRows: 512} }},
	}
	ref := midRandSchema(t, Options{Optimizer: Reference}, 5)
	want := make([]*Result, len(shapes))
	for i, sh := range shapes {
		var err error
		if want[i], err = ref.Exec(sh.q); err != nil {
			t.Fatalf("%s reference: %v", sh.name, err)
		}
	}
	for _, st := range storages {
		for _, par := range []int{1, 4, 8} {
			opts := st.opts()
			opts.Optimizer, opts.Parallelism = SystemR, par
			e := midRandSchema(t, opts, 5)
			for i, sh := range shapes {
				label := sh.name + "/" + st.name + "/par" + string(rune('0'+par))
				want := want[i]
				got, an, err := e.QueryAnalyze(sh.q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if g, w := strings.Join(exactRows(got), ";"), strings.Join(exactRows(want), ";"); g != w {
					t.Fatalf("%s: disagrees with the reference (%d vs %d rows)\ngot: %.400v\nref: %.400v\nplan:\n%s",
						label, len(got.Rows), len(want.Rows), g, w, got.Plan)
				}
				if strings.Contains(sh.q, "ORDER BY") && orderedRows(got) != orderedRows(want) {
					t.Fatalf("%s: row order differs under ORDER BY", label)
				}
				ops := assertBatchPath(t, an, label)
				found := false
				for _, op := range ops {
					found = found || strings.HasPrefix(op, sh.needs)
				}
				if !found {
					t.Errorf("%s: plan has no %s node:\n%s", label, sh.needs, an.Text)
				}
			}
		}
	}
}

// TestVectorizedAnalyzeMarksNodes: EXPLAIN ANALYZE reports vectorized=true on
// the batch operators.
func TestVectorizedAnalyzeMarksNodes(t *testing.T) {
	on := midRandSchema(t, Options{Optimizer: SystemR}, 3)
	q := "SELECT x.a, x.f FROM r x WHERE x.a < 10"
	_, an, err := on.QueryAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(an.Text, "vectorized=true") {
		t.Errorf("analyzed scan+filter not marked vectorized:\n%s", an.Text)
	}
	var marked int
	an.Root.Walk(func(n *NodeAnalysis) {
		if n.Vectorized {
			marked++
		}
	})
	if marked == 0 {
		t.Error("no NodeAnalysis has Vectorized set")
	}
}
