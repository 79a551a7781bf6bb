package main

import (
	"path/filepath"
	"time"

	queryopt "repro"
)

// traced sets the workload up once and reports the per-layer metrics: layer
// times from the traced pipeline, operator self time and q-errors from
// QueryAnalyze, the cost-rank check, and counters from a short untraced
// loop of the real mix (plan cache, GC, storage, ingest).
func (s *spec) traced(work string, seed int64, d time.Duration, env *envelope) (*report, error) {
	dir := ""
	if s.disk {
		dir = filepath.Join(work, "traced")
	}
	er, st, err := s.setup(dir)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{"stats.analyze_s": {st.analyze.Seconds(), "s"}}
	fid := &fidelity{}
	traces, err := s.traceLayers(er, d*3/10, env, m, fid)
	if err != nil {
		return nil, err
	}
	chosen, err := s.traceOperators(er, env, m)
	if err != nil {
		return nil, err
	}
	if err := s.traceCostRank(er, traces, chosen, d/10, env, m, fid); err != nil {
		return nil, err
	}
	lr := s.traceCounters(er, seed, d*3/10, env, m)
	wrong, err := s.verify(mergeAnswers(lr.sessions))
	if err != nil {
		return nil, err
	}
	attempted, failed := fid.attempted, fid.failed+wrong
	for _, sess := range lr.sessions {
		attempted += sess.ops
		failed += sess.errs
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// traceLayers reports the layer spans per statement: the mean over shapes
// of each shape's median, with the fidelity check on every shape.
func (s *spec) traceLayers(er *engineRun, budget time.Duration, env *envelope, m map[string]metric, fid *fidelity) ([]*shapeTrace, error) {
	n := float64(len(s.shapes))
	var traces []*shapeTrace
	var layerNs [nLayers]float64
	var sumLayers, sumWall, sumAlloc, sumOverhead, plansCosted, subsets float64
	for i := range s.shapes {
		tr, err := traceShape(er.eng, &s.shapes[i], budget/time.Duration(len(s.shapes)), fid)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
		var layers, allocs float64
		for l := 0; l < nLayers; l++ {
			layerNs[l] += tr.layerNs[l]
			layers += tr.layerNs[l]
			allocs += tr.layerAllocB[l]
		}
		sumLayers += layers
		sumWall += tr.execWallNs
		sumAlloc += tr.execAllocB - allocs
		sumOverhead += tr.tracedWallNs - tr.execWallNs
		plansCosted += float64(tr.opt.PlansCosted)
		subsets += float64(tr.opt.SubsetsVisited)
		name := s.shapes[i].name
		env.Samples["trace."+name] = tr.reps
		if tr.planVariants > 1 {
			env.Samples["plan_variants."+name] = tr.planVariants
		}
		env.Info["exec_wall_ms."+name] = tr.execWallNs / 1e6
		env.Info["materialize_share."+name] = (tr.execWallNs - layers) / tr.execWallNs
		env.Info["format_share."+name] = tr.layerNs[lFormat] / tr.execWallNs
		env.Info["plan_share."+name] = (layers - tr.layerNs[lExec] - tr.layerNs[lFormat]) / tr.execWallNs
	}
	reps := 0
	for _, tr := range traces {
		reps += tr.reps
	}
	for l := 0; l < nLayers; l++ {
		env.Samples[layerNames[l]] = reps
		if l == lExec {
			m[layerNames[l]] = metric{layerNs[l] / n / 1e6, "ms"}
		} else {
			m[layerNames[l]] = metric{layerNs[l] / n / 1e3, "us"}
		}
	}
	m["systemr.plans_costed"] = metric{plansCosted / n, "count"}
	m["systemr.subsets_visited"] = metric{subsets / n, "count"}
	m["queryopt.materialize_us"] = metric{(sumWall - sumLayers) / n / 1e3, "us"}
	m["queryopt.alloc_kb"] = metric{sumAlloc / n / 1024, "KiB"}
	m["queryopt.traced_coverage"] = metric{sumLayers / sumWall, "ratio"}
	m["queryopt.trace_overhead_us"] = metric{sumOverhead / n / 1e3, "us"}
	return traces, nil
}

// traceOperators reports operator self time, q-errors and row counts from
// QueryAnalyze, and returns each shape's (estimated cost, execution time).
func (s *spec) traceOperators(er *engineRun, env *envelope, m map[string]metric) ([][2]float64, error) {
	n := float64(len(s.shapes))
	self := map[string]float64{}
	var qerrs []float64
	var rows, peak, topn float64
	var chosen [][2]float64
	for i := range s.shapes {
		sh := &s.shapes[i]
		a, err := analyzeShape(er.eng, sh, 3)
		if err != nil {
			return nil, err
		}
		for k, v := range a.selfNs {
			self[k] += v
		}
		qerrs = append(qerrs, a.qerrors...)
		rows += float64(a.rows)
		peak = max(peak, float64(a.peakMemB))
		if sh.topn {
			topn = float64(a.rows)
		}
		chosen = append(chosen, [2]float64{a.estCost, a.execNs})
	}
	for _, k := range opKinds {
		m["exec.self_ms."+k] = metric{self[k] / n / 1e6, "ms"}
	}
	m["exec.rows_processed"] = metric{rows / n, "count"}
	m["exec.rows_processed.topn"] = metric{topn, "count"}
	m["exec.peak_mem_kb"] = metric{peak / 1024, "KiB"}
	m["stats.qerror_p50"] = metric{percentile(qerrs, 0.5), "ratio"}
	m["stats.qerror_max"] = metric{percentile(qerrs, 1), "ratio"}
	env.Samples["stats.qerror"] = len(qerrs)
	return chosen, nil
}

// traceCostRank reports the mean rank correlation of estimated cost with
// measured time over the join shapes' alternative plans. A workload without
// a join shape ranks its shapes' chosen plans against each other instead.
func (s *spec) traceCostRank(er *engineRun, traces []*shapeTrace, chosen [][2]float64, budget time.Duration, env *envelope, m map[string]metric, fid *fidelity) error {
	var rhos []float64
	ranked := 0
	for i := range s.shapes {
		sh := &s.shapes[i]
		if !sh.join {
			continue
		}
		r, err := rankShape(er.eng, sh, traces[i].want, budget, fid)
		if err != nil {
			return err
		}
		env.Info["cost.rank_spearman."+sh.name] = r.rho
		env.Samples["cost.rank_plans."+sh.name] = r.plans
		env.Samples["cost.rank_last_bit_float_diffs."+sh.name] = r.lastBit
		if r.ok {
			rhos = append(rhos, r.rho)
			ranked += r.plans
		}
	}
	if len(rhos) == 0 {
		var costs, times []float64
		for _, c := range chosen {
			costs = append(costs, c[0])
			times = append(times, c[1])
		}
		rho, _ := spearman(costs, times)
		rhos, ranked = []float64{rho}, len(chosen)
	}
	var sum float64
	for _, r := range rhos {
		sum += r
	}
	m["cost.rank_spearman"] = metric{sum / float64(len(rhos)), "ratio"}
	env.Samples["cost.rank_spearman"] = ranked
	return nil
}

// traceCounters runs the real mix untraced for d and reports the plan-cache
// hit rate, the GC share of CPU, ExecStats storage counters per statement
// and ingest timings.
func (s *spec) traceCounters(er *engineRun, seed int64, d time.Duration, env *envelope, m map[string]metric) *loopResult {
	cache0 := er.eng.PlanCacheStats()
	gc0, cpu0 := cpuSeconds()
	lr := s.runLoop(er, seed, d, 1, nil)
	gc1, cpu1 := cpuSeconds()
	cache1 := er.eng.PlanCacheStats()
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	m["plancache.hit_rate"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	m["runtime.gc_cpu_frac"] = metric{ratio(gc1-gc0, cpu1-cpu0), "ratio"}
	var sum queryopt.ExecStats
	var stmts int
	var loads, flushes []float64
	for _, sess := range lr.sessions {
		addStats(&sum, sess.stats)
		stmts += sess.statsOps
		loads = append(loads, sess.ingestLoad...)
		flushes = append(flushes, sess.ingestFl...)
	}
	per := func(v int64) float64 { return ratio(float64(v), float64(stmts)) }
	m["storage.bytes_read_per_stmt"] = metric{per(sum.BytesRead), "B"}
	m["storage.segments_read_per_stmt"] = metric{per(sum.SegmentsRead), "count"}
	m["storage.pruned_frac"] = metric{ratio(float64(sum.SegmentsPruned), float64(sum.SegmentsRead+sum.SegmentsPruned)), "ratio"}
	m["storage.blocks_dict_per_stmt"] = metric{per(sum.BlocksDict), "count"}
	m["storage.blocks_rle_per_stmt"] = metric{per(sum.BlocksRLE), "count"}
	m["storage.blocks_plain_per_stmt"] = metric{per(sum.BlocksPlain), "count"}
	m["storage.load_rows_ms"] = metric{median(loads), "ms"}
	m["storage.flush_ms"] = metric{median(flushes), "ms"}
	env.Samples["loop.statements"] = stmts
	env.Samples["storage.ingest_batches"] = len(loads)
	return lr
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds returns the cumulative GC and total CPU time the runtime
// estimates for this process.
func cpuSeconds() (gc, total float64) {
	return readMetric("/cpu/classes/gc/total:cpu-seconds").Float64(),
		readMetric("/cpu/classes/total:cpu-seconds").Float64()
}
