package main

import (
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"strings"
	"time"

	queryopt "repro"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/systemr"
)

// The traced run re-enacts Engine.Exec from outside the program: it calls
// each layer's public function in the order Engine.Exec does and times every
// call. The layers below are the spans of one traced statement.
const (
	lParse = iota
	lBuild
	lNormalize
	lRewrite
	lOptimize
	lExec
	lFormat
	nLayers
)

var layerNames = [nLayers]string{
	"sql.parse_us", "logical.build_us", "logical.normalize_us", "rewrite.us",
	"systemr.optimize_us", "exec.run_ms", "physical.format_us",
}

// span is one traced statement: time and heap bytes allocated per layer.
type span struct {
	ns     [nLayers]float64
	allocB [nLayers]float64
	// wall is the whole traced statement, including the stopwatches and
	// the conversion of rows to [][]any.
	wall float64
	opt  systemr.Metrics
}

// stopwatch times consecutive layer calls of one statement. It reads the
// allocation counter into a sample it owns, so reading allocates nothing.
type stopwatch struct {
	sp     *span
	t      time.Time
	allocs float64
	sample []metrics.Sample
}

func newStopwatch(sp *span) *stopwatch {
	return &stopwatch{sp: sp, sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (w *stopwatch) heapAllocs() float64 {
	metrics.Read(w.sample)
	return float64(w.sample[0].Value.Uint64())
}

func (w *stopwatch) start() {
	w.allocs = w.heapAllocs()
	w.t = time.Now()
}

// lap closes the current layer's interval and opens the next one.
func (w *stopwatch) lap(layer int) {
	now := time.Now()
	w.sp.ns[layer] += float64(now.Sub(w.t).Nanoseconds())
	a := w.heapAllocs()
	w.sp.allocB[layer] += a - w.allocs
	w.allocs = a
	w.t = time.Now()
}

// prepare takes a statement through parse, build, normalize and, when
// rewrites is set, the rewrite passes: the logical query every optimizer
// starts from. Each layer call is one lap of w.
func prepare(cat *catalog.Catalog, text string, rewrites bool, w *stopwatch) (*logical.Query, error) {
	w.start()
	stmt, err := sql.Parse(text)
	w.lap(lParse)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %s", text)
	}
	q, err := logical.NewBuilder(cat).Build(sel)
	w.lap(lBuild)
	if err != nil {
		return nil, err
	}
	logical.NormalizeQuery(q, logical.DefaultNormalize())
	w.lap(lNormalize)
	if rewrites {
		rewrite.UnnestSubqueries(q)
		rewrite.AssociateJoinOuterjoin(q)
		rewrite.MovePredicates(q)
		rewrite.PushDownGroupBy(q)
		w.lap(lRewrite)
		logical.NormalizeQuery(q, logical.DefaultNormalize())
		w.lap(lNormalize)
	}
	logical.PruneColumns(q)
	w.lap(lRewrite)
	return q, nil
}

// estimator rebuilds the engine's statistics estimator from public
// functions: on disk, segment footers stand in for missing statistics and
// zone maps prune the pages a scan is charged for.
func estimator(eng *queryopt.Engine, md *logical.Metadata) *stats.Estimator {
	est := stats.NewEstimator(md)
	store := eng.Store()
	if !store.DiskBacked() {
		return est
	}
	est.SegmentStats = func(name string) *catalog.TableStats {
		tab, ok := store.Table(name)
		if !ok {
			return nil
		}
		return stats.SegmentTableStats(tab)
	}
	est.ScanPages = func(scan *logical.Scan, filters []logical.Scalar) float64 {
		tab, ok := store.Table(scan.Table.Name)
		if !ok {
			return -1
		}
		ords := make([]int, len(scan.Cols))
		for i, id := range scan.Cols {
			ords[i] = md.Column(id).BaseOrd
		}
		if p := tab.PrunedPageCount(exec.CompileScanZonePreds(filters, scan.Cols, ords)); p >= 0 {
			return float64(p)
		}
		return -1
	}
	return est
}

// execute runs a physical plan the way the engine does for a serial,
// unbudgeted query.
func execute(eng *queryopt.Engine, plan physical.Plan, q *logical.Query) (*exec.Result, error) {
	ec := exec.NewCtx(eng.Store(), q.Meta)
	ec.Context = context.Background()
	ec.Mem = exec.NewMemAccountWithParent(0, nil)
	return exec.RunPlanQuery(plan, q, ec)
}

// tracedExec is Engine.Exec for a SELECT under the default System-R
// optimizer, one timed layer call at a time. It returns the plan text the
// engine would put into Result.Plan and the rows as [][]any.
func tracedExec(eng *queryopt.Engine, text string, sp *span) (string, [][]any, error) {
	t0 := time.Now()
	w := newStopwatch(sp)
	q, err := prepare(eng.Catalog(), text, true, w)
	if err != nil {
		return "", nil, err
	}
	opt := systemr.New(estimator(eng, q.Meta), cost.DefaultModel(), systemr.DefaultOptions())
	plan, err := opt.Optimize(q)
	w.lap(lOptimize)
	if err != nil {
		return "", nil, err
	}
	sp.opt = opt.Metrics
	res, err := execute(eng, plan, q)
	w.lap(lExec)
	if err != nil {
		return "", nil, err
	}
	planText := physical.Format(plan, q.Meta)
	w.lap(lFormat)
	rows := toRows(res.Rows)
	sp.wall = float64(time.Since(t0).Nanoseconds())
	return planText, rows, nil
}

// toRows converts executor rows to the native Go values Result.Rows holds.
func toRows(in []datum.Row) [][]any {
	out := make([][]any, len(in))
	for i, r := range in {
		row := make([]any, len(r))
		for j, d := range r {
			switch d.Kind() {
			case datum.KindBool:
				row[j] = d.Bool()
			case datum.KindInt:
				row[j] = d.Int()
			case datum.KindFloat:
				row[j] = d.Float()
			case datum.KindString:
				row[j] = d.Str()
			}
		}
		out[i] = row
	}
	return out
}

// fidelity is the traced run's own correctness tally.
type fidelity struct {
	attempted, failed int
}

func (f *fidelity) check(ok bool, format string, args ...any) {
	f.attempted++
	if !ok {
		f.failed++
		fmt.Fprintf(os.Stderr, "perfbench: trace check failed: "+format+"\n", args...)
	}
}

// shapeTrace is what the traced run measured on one shape.
type shapeTrace struct {
	layerNs, layerAllocB [nLayers]float64 // per-layer medians / means
	execWallNs           float64          // median untraced Exec wall
	execAllocB           float64          // mean untraced Exec allocation
	tracedWallNs         float64          // median traced statement wall
	opt                  systemr.Metrics
	reps                 int
	planVariants         int     // distinct plans Exec printed (ties between equal costs)
	want                 [][]any // Exec's rows of a join shape, for the plan ranking
}

// traceShape alternates untraced Exec and the traced pipeline on the
// shape's first binding, and checks that the two agree on plan and rows.
func traceShape(eng *queryopt.Engine, sh *shape, budget time.Duration, fid *fidelity) (*shapeTrace, error) {
	text := sh.lits[0]
	t := time.Now()
	first, err := eng.Exec(text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sh.name, err)
	}
	reps := clampReps(budget, time.Since(t)*2, 7, 2000)
	st := &shapeTrace{reps: reps}
	if sh.join {
		st.want = first.Rows
	}
	var walls, traced []float64
	var layers [nLayers][]float64
	// The engine breaks exact cost ties between plans by map order, so
	// two Execs of one statement may print different, equally cheap plans.
	// Every plan the traced pipeline chose must be one Exec also chose.
	execPlans, tracedPlans := map[string]bool{first.Plan: true}, map[string]bool{}
	// Time untraced and traced executions alternately, so drift in the
	// machine's speed hits both alike.
	for i := 0; i < reps; i++ {
		t := time.Now()
		res, err := eng.Exec(text)
		walls = append(walls, float64(time.Since(t).Nanoseconds()))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		execPlans[res.Plan] = true
		var sp span
		plan, rows, err := tracedExec(eng, text, &sp)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", sh.name, err)
		}
		traced = append(traced, sp.wall)
		for l := 0; l < nLayers; l++ {
			layers[l] = append(layers[l], sp.ns[l])
		}
		st.opt = sp.opt
		tracedPlans[plan] = true
		if i == 0 {
			fid.check(fingerprintRows(rows).same(fingerprintRows(res.Rows), sh.ordered),
				"%s: traced rows differ from Exec rows", sh.name)
		}
	}
	// Count allocations in two batches instead: the counter advances a
	// span at a time, so per-call readings are lumpy and only long runs of
	// the same call divide evenly.
	n := min(reps, 200)
	a := heapAllocs()
	for i := 0; i < n; i++ {
		if _, err := eng.Exec(text); err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
	}
	st.execAllocB = (heapAllocs() - a) / float64(n)
	for i := 0; i < n; i++ {
		var sp span
		if _, _, err := tracedExec(eng, text, &sp); err != nil {
			return nil, fmt.Errorf("traced %s: %w", sh.name, err)
		}
		for l := 0; l < nLayers; l++ {
			st.layerAllocB[l] += sp.allocB[l] / float64(n)
		}
	}
	for plan := range tracedPlans {
		for i := 0; i < 50 && !execPlans[plan]; i++ {
			res, err := eng.Exec(text)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sh.name, err)
			}
			execPlans[res.Plan] = true
		}
		fid.check(execPlans[plan], "%s: traced plan is none of Exec's plans:\n%s", sh.name, plan)
	}
	st.planVariants = len(execPlans)
	st.execWallNs = median(walls)
	st.tracedWallNs = median(traced)
	for l := 0; l < nLayers; l++ {
		st.layerNs[l] = median(layers[l])
	}
	return st, nil
}

// clampReps picks how many repetitions of a call taking one fit in budget.
func clampReps(budget, one time.Duration, lo, hi int) int {
	n := lo
	if one > 0 {
		n = int(budget / one)
	}
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

// opKind maps an EXPLAIN operator description to the operator kinds the
// per-operator self-time metrics are named after.
func opKind(op string) string {
	for _, k := range []struct{ prefix, kind string }{
		{"table-scan", "TableScan"}, {"index-scan", "IndexScan"}, {"filter", "Filter"},
		{"project", "Project"}, {"sort", "Sort"}, {"hash-group-by", "HashGroupBy"},
		{"index-nl-", "INLJoin"}, {"hash-", "HashJoin"},
	} {
		if strings.HasPrefix(op, k.prefix) {
			return k.kind
		}
	}
	return "other"
}

var opKinds = []string{"TableScan", "IndexScan", "Filter", "Project", "HashJoin", "INLJoin", "HashGroupBy", "Sort", "other"}

// analyzed is what QueryAnalyze reported on one shape.
type analyzed struct {
	selfNs   map[string]float64 // median over runs, per operator kind
	qerrors  []float64
	rows     int64
	peakMemB int64
	estCost  float64
	execNs   float64 // median root wall time
}

// analyzeShape runs QueryAnalyze a few times on the shape's first binding.
func analyzeShape(eng *queryopt.Engine, sh *shape, reps int) (*analyzed, error) {
	out := &analyzed{selfNs: map[string]float64{}}
	per := map[string][]float64{}
	var walls []float64
	for i := 0; i < reps; i++ {
		res, pa, err := eng.QueryAnalyze(sh.lits[0])
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", sh.name, err)
		}
		self := map[string]float64{}
		pa.Root.Walk(func(n *queryopt.NodeAnalysis) {
			if !n.Executed {
				return
			}
			self[opKind(n.Op)] += float64(n.SelfNanos)
			if i == 0 {
				out.qerrors = append(out.qerrors, n.QError)
			}
		})
		for _, k := range opKinds {
			per[k] = append(per[k], self[k])
		}
		walls = append(walls, float64(pa.Root.WallNanos))
		out.rows = res.Stats.RowsProcessed
		out.peakMemB = res.Stats.PeakMemBytes
		out.estCost = res.EstCost
	}
	for k, xs := range per {
		out.selfNs[k] = median(xs)
	}
	out.execNs = median(walls)
	return out, nil
}
