package main

import (
	"fmt"
	"math/rand"

	queryopt "repro"
)

// shape is one statement shape of a workload. Parameterised shapes mark
// their parameters with `?` and draw bindings from a seeded pool, so every
// binding's reference answer can be computed once.
type shape struct {
	name string
	text string
	// ordered: the ORDER BY is total, so row order is part of the answer.
	ordered bool
	// join: the shape joins tables, so the traced run ranks its alternative
	// plans by estimated cost against measured time. Join shapes are
	// ordered, so alternative plans' rows compare position by position.
	join bool
	// topn: the ORDER BY … LIMIT shape whose processed-row count is traced.
	topn bool
	// crossCheck: the naive reference evaluator is unaffordable for this
	// shape (the star join takes tens of seconds), so its answers are
	// checked against the Cascades optimizer instead: another plan search
	// over the same rewritten query. (Reference mode applies the same
	// rewrites, so floats summed by an eagerly pushed-down GROUP BY round
	// the same way in both.)
	crossCheck bool
	// binds is the pool of bindings the loop draws from; one empty binding
	// for shapes without parameters. lits holds each binding's literal text.
	binds [][]any
	lits  []string
}

// table is one table's generated rows.
type table struct {
	name string
	rows [][]any
}

// spec is everything a workload generates from its seed.
type spec struct {
	name string
	// sessions is the number of closed-loop clients.
	sessions int
	// prepared: clients alternate literal Exec and prepared Stmt.Exec;
	// otherwise every statement is a literal Exec (plan cache bypassed).
	prepared bool
	// disk: the engine stores its tables under a directory.
	disk bool
	ddl  []string
	// tables generates the loaded rows. They are generated again where
	// needed rather than kept, so the benchmark's copy does not add to the
	// heap the collector scans while the engine is measured.
	tables func() []table
	// rows is the number of rows tables generates.
	rows int
	// schedule is one rotation of shape indices; weights follow from
	// repeats. Its length is odd, so literal and prepared modes alternate
	// on every slot from one rotation to the next.
	schedule []int
	shapes   []shape
	// ingest, when set, returns the rows of the n-th LoadRows+Flush batch;
	// every ingestEvery-th operation of the loop is one such batch. Such a
	// workload runs one client, so every read sees a known number of
	// batches and can be checked against the data as it then stood.
	ingest      func(n int) [][]any
	ingestEvery int
	ingestTable string
	// options configures the measured engine (dir is its storage directory
	// for disk workloads).
	options func(dir string) queryopt.Options
	// refOptions configures the engine that computes reference answers.
	refOptions queryopt.Options
}

// scale sizes the generated data; the smoke test shrinks it.
type scale struct {
	factRows, dimRows   int
	emps, depts         int
	eventRows, batchRow int
	poolSize            int
}

func defaultScale() scale {
	return scale{
		factRows: 200_000, dimRows: 200,
		emps: 50_000, depts: 200,
		eventRows: 400_000, batchRow: 4096,
		poolSize: 16,
	}
}

var workloadNames = []string{"star-olap", "oltp-point", "disk-ingest-scan"}

func newSpec(name string, seed int64, sc scale) (*spec, error) {
	switch name {
	case "star-olap":
		return starOLAP(seed, sc).finish(), nil
	case "oltp-point":
		return oltpPoint(seed, sc).finish(), nil
	case "disk-ingest-scan":
		return diskIngestScan(seed, sc).finish(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// finish gives parameterless shapes their single empty binding and renders
// every binding's literal text.
func (s *spec) finish() *spec {
	for i := range s.shapes {
		sh := &s.shapes[i]
		if sh.binds == nil {
			sh.binds = [][]any{nil}
		}
		for _, b := range sh.binds {
			sh.lits = append(sh.lits, literal(sh.text, b))
		}
	}
	return s
}

// pool draws n bindings once, so the set of distinct statements stays small
// enough to check every one against the reference. gen receives the
// binding's index i, for stratum.
func pool(r *rand.Rand, n int, gen func(r *rand.Rand, i int) []any) [][]any {
	p := make([][]any, n)
	for i := range p {
		p[i] = gen(r, i)
	}
	return p
}

// stratum draws a value in [0, size) from the i-th of n equal strata. A
// pool drawn this way covers the key range evenly under every seed, which
// matters where cost depends on the key: a primary-key range scan costs
// more the higher its lower bound.
func stratum(r *rand.Rand, i, n, size int) int {
	return (i*size + r.Intn(size)) / n
}

var cats = []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}

// starOLAP is an in-memory star schema: a Zipf-skewed fact table and three
// small dimensions, queried by one client with a fixed rotation of seven
// analytic shapes. Execution and result materialization dominate; planning
// is a small share, and neither the plan cache nor storage is involved.
func starOLAP(seed int64, sc scale) *spec {
	r := rand.New(rand.NewSource(seed + 1)) // bindings; tables use seed
	s := &spec{
		name:     "star-olap",
		sessions: 1,
		ddl: []string{
			`CREATE TABLE dim1 (k INT NOT NULL, attr VARCHAR, filt INT, PRIMARY KEY (k))`,
			`CREATE TABLE dim2 (k INT NOT NULL, attr VARCHAR, filt INT, PRIMARY KEY (k))`,
			`CREATE TABLE dim3 (k INT NOT NULL, attr VARCHAR, filt INT, PRIMARY KEY (k))`,
			`CREATE TABLE sales (id INT NOT NULL, k1 INT, k2 INT, k3 INT, ref INT, cat VARCHAR, qty INT, amount FLOAT, PRIMARY KEY (id))`,
			`CREATE INDEX sales_ref ON sales (ref)`,
		},
		options:    func(string) queryopt.Options { return queryopt.Options{} },
		refOptions: queryopt.Options{Optimizer: queryopt.Reference},
	}
	s.tables = func() []table {
		r := rand.New(rand.NewSource(seed))
		var ts []table
		for d := 1; d <= 3; d++ {
			rows := make([][]any, sc.dimRows)
			for k := range rows {
				rows[k] = []any{int64(k), fmt.Sprintf("d%d_%03d", d, k), int64(r.Intn(10))}
			}
			ts = append(ts, table{name: fmt.Sprintf("dim%d", d), rows: rows})
		}
		zipf := rand.NewZipf(r, 1.2, 1, uint64(sc.dimRows-1))
		refs := r.Perm(sc.factRows)
		fact := make([][]any, sc.factRows)
		for i := range fact {
			fact[i] = []any{
				int64(i), int64(zipf.Uint64()), int64(r.Intn(sc.dimRows)), int64(r.Intn(sc.dimRows)),
				int64(refs[i]), cats[r.Intn(len(cats))], int64(1 + r.Intn(20)),
				float64(r.Intn(100_000)) / 100,
			}
		}
		return append(ts, table{name: "sales", rows: fact})
	}
	s.rows = 3*sc.dimRows + sc.factRows
	s.shapes = []shape{
		{name: "star-join", ordered: true, join: true, crossCheck: true, text: `SELECT d1.attr, d2.filt, SUM(f.amount), COUNT(*)
			FROM sales f, dim1 d1, dim2 d2, dim3 d3
			WHERE f.k1 = d1.k AND f.k2 = d2.k AND f.k3 = d3.k AND d2.filt < 5 AND d3.filt < 3
			GROUP BY d1.attr, d2.filt ORDER BY d1.attr, d2.filt`},
		{name: "wide-scan", text: `SELECT id, k1, qty, amount FROM sales WHERE qty <= 11`},
		{name: "group-str", ordered: true, text: `SELECT cat, COUNT(*), SUM(amount), AVG(qty) FROM sales GROUP BY cat ORDER BY cat`},
		{name: "topn", ordered: true, topn: true, text: `SELECT id, amount FROM sales ORDER BY amount DESC, id LIMIT 10`},
		{name: "exists", ordered: true, join: true, text: `SELECT d.k, d.attr FROM dim1 d
			WHERE EXISTS (SELECT f.id FROM sales f WHERE f.k1 = d.k AND f.qty = 20 AND f.cat = 'c3') ORDER BY d.k`},
		{name: "union", text: `SELECT k2, cat FROM sales WHERE amount > 995 UNION SELECT k3, cat FROM sales WHERE amount < 5`},
		{name: "index-point", text: `SELECT id, k1, cat, amount FROM sales WHERE ref = ?`,
			binds: pool(r, sc.poolSize, func(r *rand.Rand, _ int) []any { return []any{int64(r.Intn(sc.factRows))} })},
	}
	s.schedule = []int{0, 1, 2, 3, 4, 5, 6}
	return s
}

// oltpPoint is Emp/Dept with indexes, served to two clients that each
// alternate literal Exec and prepared Stmt.Exec over six short statements.
// Parsing, binding, rewriting, optimizing, plan-cache dispatch and plan
// formatting dominate; execution touches few rows.
func oltpPoint(seed int64, sc scale) *spec {
	r := rand.New(rand.NewSource(seed + 1)) // bindings; tables use seed
	s := &spec{
		name:     "oltp-point",
		sessions: 2,
		prepared: true,
		ddl: []string{
			`CREATE TABLE dept (did INT NOT NULL, dname VARCHAR, loc VARCHAR, budget FLOAT, PRIMARY KEY (did))`,
			`CREATE TABLE emp (eid INT NOT NULL, name VARCHAR, did INT, sal FLOAT, age INT, PRIMARY KEY (eid))`,
			`CREATE INDEX emp_did ON emp (did)`,
		},
		options:    func(string) queryopt.Options { return queryopt.Options{} },
		refOptions: queryopt.Options{Optimizer: queryopt.Reference},
	}
	s.tables = func() []table {
		r := rand.New(rand.NewSource(seed))
		locs := []string{"Denver", "Seattle", "Austin", "Boston", "Chicago"}
		dept := make([][]any, sc.depts)
		for d := range dept {
			dept[d] = []any{int64(d), fmt.Sprintf("dept%03d", d), locs[r.Intn(len(locs))], float64(50 + r.Intn(950))}
		}
		emp := make([][]any, sc.emps)
		for e := range emp {
			var did any = int64(r.Intn(sc.depts))
			if r.Intn(100) == 0 {
				did = nil
			}
			emp[e] = []any{int64(e), fmt.Sprintf("emp%05d", e), did, float64(20_000+r.Intn(180_000)) / 10, int64(20 + r.Intn(45))}
		}
		return []table{{name: "dept", rows: dept}, {name: "emp", rows: emp}}
	}
	s.rows = sc.depts + sc.emps
	n := sc.poolSize
	eid := func(r *rand.Rand, i int) []any { return []any{int64(stratum(r, i, n, sc.emps))} }
	did := func(r *rand.Rand, i int) int64 { return int64(stratum(r, i, n, sc.depts)) }
	eidRange := func(width int) func(r *rand.Rand, i int) []any {
		return func(r *rand.Rand, i int) []any {
			lo := stratum(r, i, n, sc.emps-width)
			return []any{int64(lo), int64(lo + width)}
		}
	}
	s.shapes = []shape{
		{name: "pk-point", text: `SELECT eid, name, did, sal FROM emp WHERE eid = ?`, binds: pool(r, n, eid)},
		{name: "index-order", ordered: true, text: `SELECT eid, sal FROM emp WHERE did = ? AND age < 30 ORDER BY sal DESC, eid`,
			binds: pool(r, n, func(r *rand.Rand, i int) []any { return []any{did(r, i)} })},
		{name: "key-join", ordered: true, join: true, text: `SELECT e.eid, e.name, d.dname FROM emp e, dept d
			WHERE e.did = d.did AND e.eid >= ? AND e.eid < ? ORDER BY e.eid`, binds: pool(r, n, eidRange(20))},
		{name: "small-agg", text: `SELECT COUNT(*), SUM(sal), MAX(age) FROM emp WHERE did = ? AND sal > ?`,
			binds: pool(r, n, func(r *rand.Rand, i int) []any { return []any{did(r, i), int64(5_000 + r.Intn(10_000))} })},
		{name: "in-subquery", ordered: true, join: true, text: `SELECT d.did, d.dname FROM dept d
			WHERE d.did IN (SELECT e.did FROM emp e WHERE e.eid >= ? AND e.eid < ?) ORDER BY d.did`, binds: pool(r, n, eidRange(50))},
		{name: "pk-range", ordered: true, text: `SELECT eid, name, sal FROM emp WHERE eid >= ? AND eid < ? ORDER BY eid`,
			binds: pool(r, n, eidRange(20))},
	}
	s.schedule = []int{0, 1, 2, 0, 3, 4, 5}
	return s
}

// diskIngestScan is one compressed, checksummed table on disk whose decoded
// working set exceeds the column cache. One client runs reads (a zone-map
// pruned range scan, a dictionary-string count, a GROUP BY) and every tenth
// operation ingests a batch of rows and flushes it into a sealed segment.
// Reference answers come from an in-memory twin fed the same rows.
func diskIngestScan(seed int64, sc scale) *spec {
	r := rand.New(rand.NewSource(seed + 1)) // bindings; tables use seed
	cities := []string{
		"springfield-north", "springfield-south", "shelbyville-downtown", "shelbyville-harbor",
		"capital-city-center", "capital-city-airport", "ogdenville-junction", "north-haverbrook",
	}
	// event rows: ts increases with the row number, so ts ranges prune by
	// zone map; status changes rarely, so it run-length encodes; city has
	// eight values, so it dictionary encodes.
	event := func(r *rand.Rand, i int) []any {
		return []any{int64(i), int64(r.Intn(1000)), cities[r.Intn(len(cities))], int64(i / 65536), float64(r.Intn(1_000_000)) / 100}
	}
	s := &spec{
		name:     "disk-ingest-scan",
		sessions: 1,
		disk:     true,
		ddl:      []string{`CREATE TABLE events (ts INT NOT NULL, dev INT, city VARCHAR, status INT, val FLOAT)`},
		tables: func() []table {
			r := rand.New(rand.NewSource(seed))
			rows := make([][]any, sc.eventRows)
			for i := range rows {
				rows[i] = event(r, i)
			}
			return []table{{name: "events", rows: rows}}
		},
		rows: sc.eventRows,
		ingest: func(n int) [][]any {
			br := rand.New(rand.NewSource(seed ^ int64(n+1)*7919))
			batch := make([][]any, sc.batchRow)
			for i := range batch {
				batch[i] = event(br, sc.eventRows+n*sc.batchRow+i)
			}
			return batch
		},
		ingestEvery: 10,
		ingestTable: "events",
		options: func(dir string) queryopt.Options {
			// Segments hold two ingest batches, so LoadRows only appends
			// and each batch's Flush seals, encodes and fsyncs.
			return queryopt.Options{StorageDir: dir, SegmentRows: 8192, SegmentCacheBytes: 8 << 20}
		},
		refOptions: queryopt.Options{},
	}
	span := sc.eventRows / 200
	s.shapes = []shape{
		{name: "ts-range", ordered: true, text: `SELECT ts, dev, val FROM events WHERE ts >= ? AND ts < ? ORDER BY ts`,
			binds: pool(r, sc.poolSize, func(r *rand.Rand, _ int) []any {
				lo := r.Intn(sc.eventRows - span)
				return []any{int64(lo), int64(lo + span)}
			})},
		{name: "dict-count", text: `SELECT COUNT(*), SUM(val) FROM events WHERE city = ?`,
			binds: pool(r, sc.poolSize, func(r *rand.Rand, _ int) []any { return []any{cities[r.Intn(len(cities))]} })},
		{name: "group-by", ordered: true, text: `SELECT city, status, COUNT(*), SUM(val) FROM events GROUP BY city, status ORDER BY city, status`},
	}
	s.schedule = []int{0, 1, 2}
	return s
}
