// Prepared statements and the parameterized plan cache: the serving-layer
// face of §7.4's parametric optimization. Prepare parses and normalizes a
// SELECT containing `?`/`$n` placeholders; each execution binds concrete
// values, and the engine keeps a bounded LRU of plan diagrams keyed on the
// normalized text plus the parameter-type signature. A diagram box stores a
// plan optimized at one binding vector with its parameter tags intact, so a
// hit re-binds the cached plan via physical.BindParams (choose-plan
// dispatch) instead of re-running the optimizer; a miss optimizes at the
// actual bindings and grows the diagram online. Because substitution makes
// every stored plan correct for any binding, dispatch can only affect plan
// quality, never results.
package queryopt

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/parallel"
	"repro/internal/parametric"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/sql"
)

// Stmt is a prepared SELECT. It is immutable and safe for concurrent
// execution from many goroutines.
type Stmt struct {
	e       *Engine
	text    string
	norm    string
	fp      string // statement-family fingerprint (replan-trigger key)
	nParams int
	sel     *sql.SelectStmt
}

// Text returns the original statement text.
func (s *Stmt) Text() string { return s.text }

// NumParams returns the number of parameters the statement expects.
func (s *Stmt) NumParams() int { return s.nParams }

// Prepare parses a SELECT with `?` or `$n` placeholders for later execution.
// The prepared statement shares the engine's plan cache with every other
// Stmt whose normalized text matches.
func (e *Engine) Prepare(text string) (*Stmt, error) {
	if e.opts.Optimizer == Reference {
		return nil, fmt.Errorf("queryopt: Prepare requires an optimizing mode (reference mode executes logical trees)")
	}
	norm, nParams, err := sql.Normalize(text)
	if err != nil {
		return nil, err
	}
	fp, err := sql.Fingerprint(text)
	if err != nil || fp == "" {
		fp = norm
	}
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("queryopt: Prepare supports SELECT statements only, got %T", stmt)
	}
	return &Stmt{e: e, text: text, norm: norm, fp: fp, nParams: nParams, sel: sel}, nil
}

// Exec runs the prepared statement with the given arguments (native Go
// values: int64, float64, string, bool, or nil for NULL).
func (s *Stmt) Exec(args ...any) (*Result, error) {
	return s.ExecContext(context.Background(), args...)
}

// cacheEntry is one plan-cache slot: the diagram for one (normalized text,
// type signature) pair, stamped with the catalog version it was built under.
type cacheEntry struct {
	mu          sync.Mutex
	version     uint64
	diagram     *parametric.Diagram
	uncacheable bool
}

// ExecContext is Exec under a context. Execution follows the same admission
// and latching discipline as Engine.ExecContext.
func (s *Stmt) ExecContext(ctx context.Context, args ...any) (*Result, error) {
	if len(args) != s.nParams {
		return nil, fmt.Errorf("queryopt: statement expects %d parameter(s), got %d", s.nParams, len(args))
	}
	binds := make([]datum.D, len(args))
	for i, a := range args {
		d, err := fromGo(a)
		if err != nil {
			return nil, err
		}
		binds[i] = d
	}
	e := s.e
	release, err := e.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	e.mu.RLock()
	defer e.mu.RUnlock()

	// The q-error trigger consumes at most one replan mark per statement
	// family: this execution re-optimizes (seeing any feedback-patched
	// statistics) instead of dispatching the cached diagram.
	replan := e.consumeReplan(s.fp)

	if e.plans == nil {
		e.cacheMisses.Add(1)
		q, plan, tier, err := e.planBound(s.sel, binds)
		if err != nil {
			return nil, err
		}
		return e.executePlanTier(ctx, plan, q, tier)
	}

	ver := e.catVersion.Load()
	slot, _ := e.plans.GetOrPut(s.norm+"\x00"+typeSig(binds), func() any { return &cacheEntry{version: ver} })
	ce := slot.(*cacheEntry)

	ce.mu.Lock()
	if ce.version != ver || replan {
		// DDL, ANALYZE or a material feedback override moved the catalog
		// since this diagram was built, or the replan trigger fired: every
		// cached plan may now be invalid or stale — drop and regrow.
		ce.diagram = nil
		ce.uncacheable = false
		ce.version = ver
	}
	var box *parametric.Box
	if ce.diagram != nil {
		box = ce.diagram.Find(binds)
	}
	uncacheable := ce.uncacheable
	ce.mu.Unlock()

	if box != nil {
		e.cacheHits.Add(1)
		// Re-bind, never mutate: the cached plan is shared by every
		// concurrent execution of this entry.
		bound := physical.BindParams(box.Plan, binds)
		return e.executePlanTier(ctx, bound, box.Query, "cached")
	}

	e.cacheMisses.Add(1)
	q, plan, tier, err := e.planBound(s.sel, binds)
	if err != nil {
		return nil, err
	}
	if !uncacheable {
		if physical.HasSubqueryScalar(plan) {
			// Subquery scalars embed logical subplans the binder does not
			// descend into; executions of this entry always re-optimize.
			ce.mu.Lock()
			ce.uncacheable = true
			ce.mu.Unlock()
		} else {
			sig := parametric.Signature(plan)
			_, estCost := plan.Estimate()
			ce.mu.Lock()
			if ce.version == ver && !ce.uncacheable {
				if ce.diagram == nil {
					ce.diagram = parametric.NewDiagram(s.nParams)
				}
				// Add extends a same-signature box to cover these bindings,
				// so nearby future bindings hit without re-optimizing.
				if _, err := ce.diagram.Add(binds, plan, q, sig, estCost); err != nil {
					ce.mu.Unlock()
					return nil, err
				}
			}
			ce.mu.Unlock()
		}
	}
	return e.executePlanTier(ctx, plan, q, tier)
}

// planBound builds, rewrites and optimizes the statement at concrete
// bindings, leaving parameter tags on every substituted constant so the
// resulting plan can be re-bound later. It also reports the planning tier
// that produced the plan. Callers hold the shared latch.
func (e *Engine) planBound(sel *sql.SelectStmt, binds []datum.D) (*logical.Query, physical.Plan, string, error) {
	b := logical.NewBuilder(e.cat)
	for _, u := range e.udfs {
		b.RegisterUDP(u.name, u.cost, u.sel, u.fn)
	}
	b.BindParams(binds)
	q, err := b.Build(sel)
	if err != nil {
		return nil, nil, "", err
	}
	logical.NormalizeQuery(q, logical.DefaultNormalize())
	if !e.opts.DisableRewrites && e.opts.Optimizer != Starburst {
		rewrite.UnnestSubqueries(q)
		rewrite.AssociateJoinOuterjoin(q)
		rewrite.MovePredicates(q)
		rewrite.PushDownGroupBy(q)
		logical.NormalizeQuery(q, logical.DefaultNormalize())
	}
	logical.PruneColumns(q)
	plan, tier, err := e.optimizeOne(q)
	if err != nil {
		return nil, nil, "", err
	}
	// Cache the post-Parallelize plan: BindParams copies Exchange nodes like
	// any other, and executions skip re-planning the exchanges too.
	if e.opts.Parallelism > 1 {
		model := e.costModel()
		plan = parallel.Parallelize(plan, parallel.Config{
			Degree:         e.opts.Parallelism,
			CommCostPerRow: model.CommCostPerRow,
		}, model).Plan
	}
	return q, plan, tier, nil
}

// executePlan runs an already-optimized plan under the engine's resource
// governor. Callers hold the shared latch.
func (e *Engine) executePlan(ctx context.Context, plan physical.Plan, q *logical.Query) (*Result, error) {
	ec := e.newExecCtx(ctx, q.Meta)
	rows, err := exec.RunPlanQueryValues(plan, q, ec)
	if err != nil {
		return nil, err
	}
	return e.finish(q, plan, rows, ec, ""), nil
}

// executePlanTier is executePlan with the planning tier stamped on the
// result ("cached" for plan-cache dispatches).
func (e *Engine) executePlanTier(ctx context.Context, plan physical.Plan, q *logical.Query, tier string) (*Result, error) {
	res, err := e.executePlan(ctx, plan, q)
	if err != nil {
		return nil, err
	}
	res.PlannerTier = tier
	return res, nil
}

// typeSig fingerprints the parameter kinds: bindings with different type
// signatures (including NULL, whose plans constant-fold differently) get
// separate cache entries.
func typeSig(binds []datum.D) string {
	sig := make([]byte, len(binds))
	for i, d := range binds {
		sig[i] = byte('a' + int(d.Kind()))
	}
	return string(sig)
}

// PlanCacheStats reports plan-cache effectiveness at plan granularity: a hit
// is an execution served by re-binding a cached plan, a miss ran the
// optimizer (including executions with the cache disabled).
type PlanCacheStats struct {
	Hits, Misses, Evictions int64
	// Entries is the number of (statement, type-signature) slots resident.
	Entries int
}

// PlanCacheStats returns a snapshot of the plan cache counters.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	st := PlanCacheStats{Hits: e.cacheHits.Load(), Misses: e.cacheMisses.Load()}
	if e.plans != nil {
		st.Entries = e.plans.Len()
		st.Evictions = e.plans.Evictions()
	}
	return st
}

// CatalogVersion returns the engine's catalog version counter (bumped by DDL
// and ANALYZE — the plan-cache invalidation signal).
func (e *Engine) CatalogVersion() uint64 { return e.catVersion.Load() }
