package queryopt

// bench_test.go exposes every experiment of the reproduction (E1–E23, one
// per figure/claim of the paper — see DESIGN.md §2) as a testing.B benchmark,
// plus micro-benchmarks of the engine's hot paths. Regenerate the experiment
// tables with:
//
//	go test -bench=. -benchmem
//	go run ./cmd/benchharness        # tables only, faster
import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// benchExperiment runs one experiment per iteration and reports its table
// once (experiments are deterministic; the benchmark time measures the cost
// of regenerating the result).
func benchExperiment(b *testing.B, run func() experiments.Table) {
	b.Helper()
	var t experiments.Table
	for i := 0; i < b.N; i++ {
		t = run()
	}
	b.StopTimer()
	if testing.Verbose() {
		fmt.Println(t.Format())
	}
	b.ReportMetric(float64(len(t.Rows)), "table-rows")
}

func BenchmarkE1OperatorTree(b *testing.B) { benchExperiment(b, experiments.E1OperatorTree) }
func BenchmarkE2DPvsNaive(b *testing.B)    { benchExperiment(b, experiments.E2DPvsNaive) }
func BenchmarkE3InterestingOrders(b *testing.B) {
	benchExperiment(b, experiments.E3InterestingOrders)
}
func BenchmarkE4BushyAndStar(b *testing.B)     { benchExperiment(b, experiments.E4BushyAndStar) }
func BenchmarkE5OuterjoinReorder(b *testing.B) { benchExperiment(b, experiments.E5OuterjoinReorder) }
func BenchmarkE6GroupByPushdown(b *testing.B)  { benchExperiment(b, experiments.E6GroupByPushdown) }
func BenchmarkE7ViewMerging(b *testing.B)      { benchExperiment(b, experiments.E7ViewMerging) }
func BenchmarkE8Unnesting(b *testing.B)        { benchExperiment(b, experiments.E8Unnesting) }
func BenchmarkE9MagicSets(b *testing.B)        { benchExperiment(b, experiments.E9MagicSets) }
func BenchmarkE10HistogramAccuracy(b *testing.B) {
	benchExperiment(b, experiments.E10HistogramAccuracy)
}
func BenchmarkE11SamplingAndDistinct(b *testing.B) {
	benchExperiment(b, experiments.E11SamplingAndDistinct)
}
func BenchmarkE12Propagation(b *testing.B) { benchExperiment(b, experiments.E12Propagation) }
func BenchmarkE13BufferModel(b *testing.B) { benchExperiment(b, experiments.E13BufferModel) }
func BenchmarkE14Architectures(b *testing.B) {
	benchExperiment(b, experiments.E14Architectures)
}
func BenchmarkE15ExpensivePredicates(b *testing.B) {
	benchExperiment(b, experiments.E15ExpensivePredicates)
}
func BenchmarkE16MatViews(b *testing.B) { benchExperiment(b, experiments.E16MatViews) }
func BenchmarkE17Parallel(b *testing.B) { benchExperiment(b, experiments.E17Parallel) }
func BenchmarkE18QueryGraph(b *testing.B) {
	benchExperiment(b, experiments.E18QueryGraph)
}
func BenchmarkE19Parametric(b *testing.B) {
	benchExperiment(b, experiments.E19Parametric)
}
func BenchmarkE20JointDistribution(b *testing.B) {
	benchExperiment(b, experiments.E20JointDistribution)
}
func BenchmarkE21ParallelExecution(b *testing.B) {
	benchExperiment(b, experiments.E21ParallelExecution)
}
func BenchmarkE22AnalyzeFeedback(b *testing.B) {
	benchExperiment(b, experiments.E22AnalyzeFeedback)
}
func BenchmarkE23Robustness(b *testing.B) {
	benchExperiment(b, experiments.E23Robustness)
}

// --- engine micro-benchmarks ---

func benchDB(b *testing.B, rows int) *Engine {
	b.Helper()
	e := New(Options{})
	e.MustExec(`CREATE TABLE emp (eid INT NOT NULL, name VARCHAR, did INT, sal FLOAT, PRIMARY KEY (eid))`)
	e.MustExec(`CREATE TABLE dept (did INT NOT NULL, dname VARCHAR, PRIMARY KEY (did))`)
	e.MustExec(`CREATE INDEX emp_did ON emp (did)`)
	var emp [][]any
	for i := 0; i < rows; i++ {
		emp = append(emp, []any{i, fmt.Sprintf("e%06d", i), i % 100, float64(i%9973) + 0.5})
	}
	if err := e.LoadRows("emp", emp); err != nil {
		b.Fatal(err)
	}
	var dept [][]any
	for dID := 0; dID < 100; dID++ {
		dept = append(dept, []any{dID, fmt.Sprintf("d%03d", dID)})
	}
	if err := e.LoadRows("dept", dept); err != nil {
		b.Fatal(err)
	}
	e.MustExec("ANALYZE")
	return e
}

func BenchmarkParse(b *testing.B) {
	e := benchDB(b, 100)
	q := `SELECT e.name, d.dname FROM emp e, dept d
	      WHERE e.did = d.did AND e.sal > 100 GROUP BY e.name, d.dname ORDER BY d.dname LIMIT 10`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeJoin3(b *testing.B) {
	benchOptimizer(b, SystemR)
}

func BenchmarkOptimizeJoin3Cascades(b *testing.B) {
	benchOptimizer(b, Cascades)
}

func BenchmarkOptimizeJoin3Starburst(b *testing.B) {
	benchOptimizer(b, Starburst)
}

func benchOptimizer(b *testing.B, kind OptimizerKind) {
	b.Helper()
	e := New(Options{Optimizer: kind})
	e.MustExec(`CREATE TABLE a (x INT NOT NULL, y INT, PRIMARY KEY (x))`)
	e.MustExec(`CREATE TABLE bb (x INT NOT NULL, y INT, PRIMARY KEY (x))`)
	e.MustExec(`CREATE TABLE c (x INT NOT NULL, y INT, PRIMARY KEY (x))`)
	for _, tn := range []string{"a", "bb", "c"} {
		var rows [][]any
		for i := 0; i < 1000; i++ {
			rows = append(rows, []any{i, i % 50})
		}
		if err := e.LoadRows(tn, rows); err != nil {
			b.Fatal(err)
		}
	}
	e.MustExec("ANALYZE")
	q := "SELECT a.y FROM a, bb, c WHERE a.y = bb.x AND bb.y = c.x"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecHashJoin(b *testing.B) {
	e := benchDB(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec("SELECT COUNT(*) FROM emp e, dept d WHERE e.did = d.did"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecIndexLookup(b *testing.B) {
	e := benchDB(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec("SELECT name FROM emp WHERE eid = 12345"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecGroupBy(b *testing.B) {
	e := benchDB(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec("SELECT did, COUNT(*), AVG(sal) FROM emp GROUP BY did"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecAnalyzeOff / BenchmarkExecAnalyzeOn compare the same query with
// instrumentation disabled and enabled. The off path must stay near the
// pre-instrumentation baseline: runPlan's only added work is a nil check.
func BenchmarkExecAnalyzeOff(b *testing.B) {
	e := benchDB(b, 20000)
	q := "SELECT did, COUNT(*), AVG(sal) FROM emp WHERE sal > 100 GROUP BY did"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecAnalyzeOn(b *testing.B) {
	e := benchDB(b, 20000)
	q := "SELECT did, COUNT(*), AVG(sal) FROM emp WHERE sal > 100 GROUP BY did"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.QueryAnalyze(q); err != nil {
			b.Fatal(err)
		}
	}
}
