package queryopt

// parallel_equivalence_test.go extends the equivalence net to the
// morsel-driven parallel executor: for the same random query corpus, engines
// running with Parallelism 1, 2 and 8 must return exactly the multiset the
// serial engine returns — bit-identical floats included (SUM/AVG use exact
// compensated summation, so partitioning must not change a single bit) — and
// the identical row order whenever the query has an ORDER BY. Tables here are
// large enough (thousands of rows) that the
// parallel operators really fan out rather than falling back to the serial
// path below the morsel threshold.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exactRow renders one result row with floats in exact hexadecimal form —
// no rounding workaround. Parallel float aggregates use exact compensated
// summation, so every bit must match the serial run.
func exactRow(r []any) string {
	var sb strings.Builder
	for j, v := range r {
		if j > 0 {
			sb.WriteByte('|')
		}
		switch t := v.(type) {
		case nil:
			sb.WriteString("NULL")
		case float64:
			sb.WriteString(strconv.FormatFloat(t, 'x', -1, 64))
		default:
			sb.WriteString(fmt.Sprint(t))
		}
	}
	return sb.String()
}

// exactRows is the multiset form: exact rows, sorted.
func exactRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = exactRow(r)
	}
	sort.Strings(out)
	return out
}

// bigRandSchema is randSchema scaled past the morsel threshold (~2k rows).
func bigRandSchema(t *testing.T, opts Options, seed int64) *Engine {
	t.Helper()
	return sizedRandSchema(t, opts, seed, 5000, 2000, 400)
}

// sizedRandSchema is randSchema with r, t and u holding nR, nT and nU rows;
// r.fk ranges over [0, nT) and t.fk over [0, nU).
func sizedRandSchema(t *testing.T, opts Options, seed int64, nR, nT, nU int) *Engine {
	t.Helper()
	e := New(opts)
	t.Cleanup(e.Close)
	e.MustExec(`CREATE TABLE r (pk INT NOT NULL, fk INT, a INT, s VARCHAR, f FLOAT, PRIMARY KEY (pk))`)
	e.MustExec(`CREATE TABLE t (pk INT NOT NULL, fk INT, a INT, s VARCHAR, f FLOAT, PRIMARY KEY (pk))`)
	e.MustExec(`CREATE TABLE u (pk INT NOT NULL, a INT, s VARCHAR, PRIMARY KEY (pk))`)
	e.MustExec(`CREATE INDEX r_fk ON r (fk)`)
	e.MustExec(`CREATE INDEX t_a ON t (a)`)
	rng := rand.New(rand.NewSource(seed))
	strs := []string{"ant", "bee", "cat", "dog", "elk"}
	load := func(table string, n, fkDom int, withFK bool) {
		var rows [][]any
		for i := 0; i < n; i++ {
			row := []any{i}
			if withFK {
				if rng.Intn(10) == 0 {
					row = append(row, nil)
				} else {
					row = append(row, rng.Intn(fkDom))
				}
			}
			if rng.Intn(12) == 0 {
				row = append(row, nil)
			} else {
				row = append(row, rng.Intn(20))
			}
			row = append(row, strs[rng.Intn(len(strs))])
			if table != "u" {
				if rng.Intn(12) == 0 {
					row = append(row, nil)
				} else {
					row = append(row, float64(rng.Intn(1000))/4)
				}
			}
			rows = append(rows, row)
		}
		if err := e.LoadRows(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	load("r", nR, nT, true)
	load("t", nT, nU, true)
	load("u", nU, 0, false)
	e.MustExec("ANALYZE")
	return e
}

// TestParallelQueryEquivalence: same corpus as TestRandomQueryEquivalence,
// baselined on the serial SystemR engine (serial-vs-reference equivalence is
// already covered there). Every executed scan, filter, projection, hash join
// and hash aggregation must run on the batch path at every degree.
func TestParallelQueryEquivalence(t *testing.T) {
	const trials = 25
	degrees := []int{1, 2, 8}
	for seed := int64(1); seed <= 2; seed++ {
		serial := bigRandSchema(t, Options{Optimizer: SystemR}, seed)
		engines := make([]*Engine, len(degrees))
		for i, d := range degrees {
			engines[i] = bigRandSchema(t, Options{Optimizer: SystemR, Parallelism: d}, seed)
		}
		rng := rand.New(rand.NewSource(seed * 1000))
		for trial := 0; trial < trials; trial++ {
			q := randQuery(rng)
			res, err := serial.Exec(q)
			if err != nil {
				t.Fatalf("seed %d trial %d serial: %v\nquery: %s", seed, trial, err, q)
			}
			baseline := exactRows(res)
			ordered := strings.Contains(q, "ORDER BY")
			var orderedBaseline []string
			if ordered {
				for _, r := range res.Rows {
					orderedBaseline = append(orderedBaseline, exactRow(r))
				}
			}
			for i, d := range degrees {
				pres, an, err := engines[i].QueryAnalyze(q)
				if err != nil {
					t.Fatalf("seed %d trial %d degree %d: %v\nquery: %s", seed, trial, d, err, q)
				}
				assertBatchPath(t, an, fmt.Sprintf("seed %d trial %d degree %d query %s", seed, trial, d, q))
				got := exactRows(pres)
				if strings.Join(got, ";") != strings.Join(baseline, ";") {
					t.Fatalf("seed %d trial %d: degree %d disagrees with serial\nquery: %s\nserial (%d rows): %.500v\ngot    (%d rows): %.500v\nplan:\n%s",
						seed, trial, d, q, len(baseline), baseline, len(got), got, pres.Plan)
				}
				if ordered {
					var rows []string
					for _, r := range pres.Rows {
						rows = append(rows, exactRow(r))
					}
					if strings.Join(rows, ";") != strings.Join(orderedBaseline, ";") {
						t.Fatalf("seed %d trial %d: degree %d row order differs under ORDER BY\nquery: %s\nplan:\n%s",
							seed, trial, d, q, pres.Plan)
					}
				}
			}
		}
	}
}

// TestParallelAllNullAggregates: groups whose aggregate input is entirely
// NULL must come out the same from the serial and every parallel path —
// SUM/AVG/MIN/MAX NULL, COUNT(x) 0, COUNT(*) the group size. The table is
// large enough (4096 rows) that parallel runs really take the morsel path.
func TestParallelAllNullAggregates(t *testing.T) {
	build := func(par int) *Engine {
		e := New(Options{Parallelism: par})
		t.Cleanup(e.Close)
		e.MustExec(`CREATE TABLE m (pk INT NOT NULL, g INT, v FLOAT, PRIMARY KEY (pk))`)
		var rows [][]any
		for i := 0; i < 4096; i++ {
			g := i % 8
			// Groups 0-3 are entirely NULL in v; 4-7 mix NULLs and values.
			var v any
			if g >= 4 && i%3 == 0 {
				v = float64(i%97) + 0.25
			}
			rows = append(rows, []any{i, g, v})
		}
		if err := e.LoadRows("m", rows); err != nil {
			t.Fatal(err)
		}
		e.MustExec("ANALYZE")
		return e
	}
	q := `SELECT g, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM m GROUP BY g ORDER BY g`
	serial := build(1)
	sres, err := serial.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity on the serial truth itself: all-NULL groups 0-3.
	for _, r := range sres.Rows {
		if g := r[0].(int64); g < 4 {
			if r[1].(int64) != 512 || r[2].(int64) != 0 {
				t.Fatalf("group %d counts wrong: %v", g, r)
			}
			for c := 3; c <= 6; c++ {
				if r[c] != nil {
					t.Fatalf("group %d column %d = %v, want NULL", g, c, r[c])
				}
			}
		}
	}
	for _, par := range []int{2, 4, 8} {
		pres, err := build(par).Exec(q)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(pres.Rows) != len(sres.Rows) {
			t.Fatalf("parallelism %d: %d rows, serial has %d", par, len(pres.Rows), len(sres.Rows))
		}
		for i := range sres.Rows {
			if exactRow(pres.Rows[i]) != exactRow(sres.Rows[i]) {
				t.Errorf("parallelism %d row %d: got %v, serial %v", par, i, pres.Rows[i], sres.Rows[i])
			}
		}
	}
}

// TestParallelExplainShowsExchanges: parallel engines plan Exchange operators
// that show up in EXPLAIN output.
func TestParallelExplainShowsExchanges(t *testing.T) {
	e := bigRandSchema(t, Options{Optimizer: SystemR, Parallelism: 4}, 7)
	plan, err := e.Explain("SELECT x.a, COUNT(*), SUM(x.f) FROM r x GROUP BY x.a")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "exchange") {
		t.Errorf("parallel EXPLAIN lacks Exchange operators:\n%s", plan)
	}
}
