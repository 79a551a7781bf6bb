package main

import (
	"fmt"
	"time"

	queryopt "repro"
	cascadesopt "repro/internal/cascades"
	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/qgm"
	"repro/internal/systemr"
)

// alternative is one way to plan a join shape.
type alternative struct {
	name string
	plan func(eng *queryopt.Engine, text string) (physical.Plan, *logical.Query, error)
}

// systemrAlt plans with System-R dynamic programming under the given
// options (the greedy tier and join-method restrictions are options).
func systemrAlt(name string, tune func(*systemr.Options)) alternative {
	return alternative{name, func(eng *queryopt.Engine, text string) (physical.Plan, *logical.Query, error) {
		q, err := prepare(eng.Catalog(), text, true, newStopwatch(&span{}))
		if err != nil {
			return nil, nil, err
		}
		opts := systemr.DefaultOptions()
		tune(&opts)
		p, err := systemr.New(estimator(eng, q.Meta), cost.DefaultModel(), opts).Optimize(q)
		return p, q, err
	}}
}

var alternatives = []alternative{
	systemrAlt("dp", func(*systemr.Options) {}),
	systemrAlt("greedy", func(o *systemr.Options) { o.GreedyThreshold = o.MaxRelations }),
	systemrAlt("dp-bushy", func(o *systemr.Options) { o.Bushy, o.CartesianProducts = true, true }),
	systemrAlt("dp-no-hash", func(o *systemr.Options) { o.DisableHashJoin = true }),
	systemrAlt("dp-no-inl", func(o *systemr.Options) { o.DisableINLJoin = true }),
	{"cascades", func(eng *queryopt.Engine, text string) (physical.Plan, *logical.Query, error) {
		q, err := prepare(eng.Catalog(), text, true, newStopwatch(&span{}))
		if err != nil {
			return nil, nil, err
		}
		p, err := cascadesopt.New(estimator(eng, q.Meta), cost.DefaultModel(), cascadesopt.DefaultOptions()).Optimize(q)
		return p, q, err
	}},
	{"starburst", func(eng *queryopt.Engine, text string) (physical.Plan, *logical.Query, error) {
		q, err := prepare(eng.Catalog(), text, false, newStopwatch(&span{}))
		if err != nil {
			return nil, nil, err
		}
		inner := systemr.New(estimator(eng, q.Meta), cost.DefaultModel(), systemr.DefaultOptions())
		p, _, err := (&qgm.Optimizer{Engine: qgm.DefaultEngine(), Plan: inner}).Optimize(q)
		return p, q, err
	}},
}

// ranking is the cost-rank check of one join shape.
type ranking struct {
	rho   float64 // Spearman correlation of estimated cost with run time
	ok    bool    // rho is defined: neither side was constant
	plans int     // distinct plans ranked
	// lastBit counts plans whose floats matched only within tolerance.
	lastBit int
}

// rankShape plans a join shape every alternative way, executes each
// distinct plan, checks its rows, and ranks estimated cost against
// measured execution time across the distinct plans.
func rankShape(eng *queryopt.Engine, sh *shape, want [][]any, budget time.Duration, fid *fidelity) (ranking, error) {
	var r ranking
	seen := map[string]bool{}
	var costs, times []float64
	for _, alt := range alternatives {
		plan, q, err := alt.plan(eng, sh.lits[0])
		if err != nil {
			return r, fmt.Errorf("%s/%s: %w", sh.name, alt.name, err)
		}
		key := physical.Format(plan, q.Meta)
		if seen[key] {
			continue
		}
		seen[key] = true
		t := time.Now()
		res, err := execute(eng, plan, q)
		if err != nil {
			return r, fmt.Errorf("%s/%s: %w", sh.name, alt.name, err)
		}
		reps := clampReps(budget, time.Since(t), 3, 200)
		// Plans that place aggregation differently sum floats in a
		// different grouping, which may change the last bit; rows must
		// agree exactly otherwise. Join shapes order their rows totally,
		// so rows compare position by position.
		rows := toRows(res.Rows)
		near := closeRows(rows, want)
		if near && !fingerprintRows(rows).same(fingerprintRows(want), true) {
			r.lastBit++
		}
		fid.check(near, "%s/%s: alternative plan rows differ", sh.name, alt.name)
		var ts []float64
		for i := 0; i < reps; i++ {
			t := time.Now()
			if _, err := execute(eng, plan, q); err != nil {
				return r, fmt.Errorf("%s/%s: %w", sh.name, alt.name, err)
			}
			ts = append(ts, float64(time.Since(t).Nanoseconds()))
		}
		_, c := plan.Estimate()
		costs = append(costs, c)
		times = append(times, median(ts))
	}
	r.rho, r.ok = spearman(costs, times)
	r.plans = len(costs)
	return r, nil
}
