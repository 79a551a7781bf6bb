// Package experiments implements the reproduction harness: one experiment
// per figure/claim of the paper (see DESIGN.md §2 for the E1–E21 map). Every
// experiment returns a Table whose rows are recorded in EXPERIMENTS.md; the
// cmd/benchharness binary prints them and bench_test.go wraps each in a
// testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/workload"
)

// Table is one experiment's result table.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's claim being reproduced
	Headers []string
	Rows    [][]string
	Notes   string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&sb, "note: %s\n", t.Notes)
	}
	return sb.String()
}

// All runs every experiment in order.
func All() []Table {
	return []Table{
		E1OperatorTree(),
		E2DPvsNaive(),
		E3InterestingOrders(),
		E4BushyAndStar(),
		E5OuterjoinReorder(),
		E6GroupByPushdown(),
		E7ViewMerging(),
		E8Unnesting(),
		E9MagicSets(),
		E10HistogramAccuracy(),
		E11SamplingAndDistinct(),
		E12Propagation(),
		E13BufferModel(),
		E14Architectures(),
		E15ExpensivePredicates(),
		E16MatViews(),
		E17Parallel(),
		E18QueryGraph(),
		E19Parametric(),
		E20JointDistribution(),
		E21ParallelExecution(),
		E22AnalyzeFeedback(),
		E23Robustness(),
		E26AdaptivePlanning(),
		E27Storage(),
		E28Durability(),
		E29Compression(),
	}
}

// ByID returns the experiment with the given id (e.g. "E7").
func ByID(id string) (Table, bool) {
	for _, t := range All() {
		if strings.EqualFold(t.ID, id) {
			return t, true
		}
	}
	return Table{}, false
}

// --- shared helpers ---

func mustBuild(db *workload.DB, q string) *logical.Query {
	sel, err := sql.ParseSelect(q)
	if err != nil {
		panic(fmt.Sprintf("experiments: parse %q: %v", q, err))
	}
	query, err := logical.NewBuilder(db.Cat).Build(sel)
	if err != nil {
		panic(fmt.Sprintf("experiments: build %q: %v", q, err))
	}
	logical.NormalizeQuery(query, logical.DefaultNormalize())
	logical.PruneColumns(query)
	return query
}

// buildRaw skips normalization (for experiments that compare against it).
func buildRaw(db *workload.DB, q string) *logical.Query {
	sel, err := sql.ParseSelect(q)
	if err != nil {
		panic(err)
	}
	query, err := logical.NewBuilder(db.Cat).Build(sel)
	if err != nil {
		panic(err)
	}
	return query
}

func optimize(db *workload.DB, q *logical.Query, opts systemr.Options) (physical.Plan, *systemr.Optimizer) {
	opt := systemr.New(stats.NewEstimator(q.Meta), cost.DefaultModel(), opts)
	plan, err := opt.Optimize(q)
	if err != nil {
		panic(fmt.Sprintf("experiments: optimize: %v", err))
	}
	return plan, opt
}

func runPlan(db *workload.DB, q *logical.Query, plan physical.Plan) (*exec.Result, exec.Counters) {
	ctx := exec.NewCtx(db.Store, q.Meta)
	res, err := exec.RunPlanQuery(plan, q, ctx)
	if err != nil {
		panic(fmt.Sprintf("experiments: execute: %v\n%s", err, physical.Format(plan, q.Meta)))
	}
	return res, ctx.Counters
}

func runNaive(db *workload.DB, q *logical.Query) (*exec.Result, exec.Counters) {
	ctx := exec.NewCtx(db.Store, q.Meta)
	res, err := ctx.RunQuery(q)
	if err != nil {
		panic(fmt.Sprintf("experiments: naive execute: %v", err))
	}
	return res, ctx.Counters
}

func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func d(v int) string       { return fmt.Sprintf("%d", v) }
func d64(v int64) string   { return fmt.Sprintf("%d", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
