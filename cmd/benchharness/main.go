// Command benchharness regenerates every table of the reproduction (E1–E29,
// mapped to the paper's figures and claims in DESIGN.md). Run with no
// arguments for everything, or pass experiment ids:
//
//	go run ./cmd/benchharness            # all experiments
//	go run ./cmd/benchharness E2 E10     # a subset
//	go run ./cmd/benchharness parallel   # serial-vs-parallel wall-clock sweep
//	                                     # → BENCH_parallel.json
//	go run ./cmd/benchharness analyze    # random corpus under EXPLAIN ANALYZE
//	                                     # → BENCH_analyze.json (q-error distribution)
//	go run ./cmd/benchharness robustness # memory-budget/spill overhead and
//	                                     # cancellation latency → BENCH_robustness.json
//	go run ./cmd/benchharness serving [rows] [perSession]
//	                                     # concurrent sessions: exec-literal vs
//	                                     # prepared-reoptimize vs prepared-cached
//	                                     # → BENCH_serving.json
//	go run ./cmd/benchharness storage [rows]
//	                                     # disk-backed columnar segments: cold/warm
//	                                     # scans, pruned vs unpruned, selectivity
//	                                     # sweep → BENCH_storage.json
//	go run ./cmd/benchharness durability [rows]
//	                                     # checksum verification overhead on
//	                                     # cold/warm scans, recovery time vs
//	                                     # segment count → BENCH_durability.json
//	go run ./cmd/benchharness compression [rows]
//	                                     # dictionary/RLE encoded segments vs
//	                                     # plain: scan+filter throughput, bytes
//	                                     # read, block counts
//	                                     # → BENCH_compression.json
//	go run ./cmd/benchharness adaptive [queries] [rows]
//	                                     # greedy fast path vs full DP: planning
//	                                     # time, execution time, identical results
//	                                     # → BENCH_adaptive.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/servingbench"
)

// parallelBench runs the large serial-vs-parallel comparison and writes
// BENCH_parallel.json: rows/sec and speedup at degrees 1/2/4/8, plus the
// CommCostPerRow calibrated from measured exchange overhead. GOMAXPROCS and
// CPU count are recorded because measured speedup is bounded by cores, not by
// degree.
func parallelBench() error {
	res := experiments.RunParallelBench(150000, []int{1, 2, 4, 8}, 3)
	for _, p := range res.Points {
		fmt.Printf("degree=%d  wall=%.3fs  rows/sec=%.0f  speedup=%.2fx  modeled-response=%.1f\n",
			p.Degree, p.WallSeconds, p.RowsPerSec, p.Speedup, p.ModeledResponseTime)
	}
	fmt.Printf("gomaxprocs=%d cpus=%d calibrated CommCostPerRow=%.4f (default %.4f)\n",
		res.GOMAXPROCS, res.CPUs, res.CalibratedCommCostPerRow, res.DefaultCommCostPerRow)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_parallel.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_parallel.json")
	return nil
}

// analyzeBench runs the random query corpus under per-operator
// instrumentation and writes BENCH_analyze.json: the estimate-vs-actual
// q-error distribution (percentiles, geometric mean, fraction within a factor
// of two) at serial and parallel degrees, with the worst offenders named.
func analyzeBench() error {
	res := experiments.RunAnalyzeBench(200, 20000, []int{1, 4}, 22)
	for _, p := range res.Points {
		fmt.Printf("degree=%d  nodes=%d  geomean=%.2f  p50=%.2f  p90=%.2f  p99=%.2f  max=%.2f  within2x=%.1f%%\n",
			p.Degree, p.Nodes, p.GeoMeanQError, p.P50QError, p.P90QError, p.P99QError, p.MaxQError, p.WithinFactor2*100)
		for _, w := range p.WorstOffenders {
			fmt.Printf("  offender: %-60s est=%-8.0f actual=%-8.0f q_err=%.2f\n", w.Node, w.Est, w.Actual, w.QError)
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_analyze.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_analyze.json")
	return nil
}

// robustnessBench runs the large resource-governor sweep and writes
// BENCH_robustness.json: spill counts, bytes and wall-clock overhead of
// memory-budgeted execution versus in-memory (results verified identical),
// plus the latency of canceling a mid-flight query at degrees 1/4/8.
func robustnessBench() error {
	res := experiments.RunRobustnessBench(150000, []int64{4 << 20, 1 << 20, 64 << 10}, []int{1, 4, 8}, 3)
	for _, p := range res.SpillPoints {
		label := "unlimited"
		if p.BudgetBytes > 0 {
			label = fmt.Sprintf("%dKB", p.BudgetBytes>>10)
		}
		fmt.Printf("budget=%-10s wall=%.3fs  spills=%d  spill_bytes=%d  peak=%d  overhead=%.2fx  identical=%v\n",
			label, p.WallSeconds, p.Spills, p.SpillBytes, p.PeakMemBytes, p.OverheadVsInMemory, p.RowsIdentical)
	}
	for _, c := range res.CancelPoints {
		fmt.Printf("cancel degree=%d  latency=%.2fms  (query %.1fms)\n",
			c.Degree, c.LatencySeconds*1000, c.QuerySeconds*1000)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_robustness.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_robustness.json")
	return nil
}

// storageBench runs the disk-backed columnar segment sweep and writes
// BENCH_storage.json: cold and warm scan wall-clock at selectivities
// 0.001/0.1/1.0 with zone-map pruning on and off, the segments read/pruned
// counts and cold bytes read, plus the bit-identical flag against the
// in-memory heap.
func storageBench(rows int) error {
	res := experiments.RunStorageBench(rows, 0, 3)
	for _, w := range res.Workloads {
		fmt.Printf("sel=%-6.3f %-9s segs=%d/%d pruned  cold=%.3fs  warm=%.3fs  mem=%.3fs  bytes=%d  identical=%v\n",
			w.Selectivity, w.Arm, w.SegmentsRead, w.SegmentsPruned, w.ColdWallSec, w.WarmWallSec, w.MemWallSec, w.ColdBytesRead, w.Identical)
	}
	fmt.Printf("rows=%d segment_rows=%d gomaxprocs=%d cpus=%d\n", res.Rows, res.SegmentRows, res.GOMAXPROCS, res.CPUs)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_storage.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_storage.json")
	return nil
}

// compressionBench runs the compressed-columnar sweep and writes
// BENCH_compression.json: cold/warm scan+filter wall-clock on dictionary +
// run-length encoded segments versus the DisableCompression control at
// parallelism 1/4/8, per-encoding block counts and cold bytes read, the
// serial bytes-reduction and warm-throughput speedup headline ratios, and the
// bit-identical flag against the in-memory heap.
func compressionBench(rows int) error {
	res := experiments.RunCompressionBench(rows, 0, 3)
	for _, w := range res.Workloads {
		fmt.Printf("par=%d %-12s cold=%.3fs  warm=%.3fs  mem=%.3fs  bytes=%d  blocks=%d/%d/%d (dict/rle/plain)  rows/s=%.0f  identical=%v\n",
			w.Parallelism, w.Arm, w.ColdWallSec, w.WarmWallSec, w.MemWallSec,
			w.ColdBytesRead, w.BlocksDict, w.BlocksRLE, w.BlocksPlain,
			w.WarmRowsPerSec, w.Identical)
	}
	fmt.Printf("rows=%d segment_rows=%d gomaxprocs=%d cpus=%d  bytes_reduction=%.2fx  speedup=%.2fx (serial, warm)\n",
		res.Rows, res.SegmentRows, res.GOMAXPROCS, res.CPUs, res.BytesReduction, res.Speedup)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_compression.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_compression.json")
	return nil
}

// servingBench runs the concurrent serving sweep and writes
// BENCH_serving.json: qps and latency percentiles at 1/8/64/256 sessions for
// plain Exec, prepared statements without the plan cache, and prepared
// statements with it — plus the cache hit rate and the bit-identical flag.
func servingBench(rows, perSession int) error {
	res, err := servingbench.Run(rows, perSession, []int{1, 8, 64, 256})
	if err != nil {
		return err
	}
	for _, p := range res.Points {
		fmt.Printf("%-20s sessions=%-4d qps=%-9.0f p50=%.3fms  p99=%.3fms  hit_rate=%.1f%%  identical=%v\n",
			p.Mode, p.Sessions, p.QPS, p.P50Ms, p.P99Ms, p.HitRate*100, p.Identical)
	}
	fmt.Printf("gomaxprocs=%d cpus=%d\n", res.GOMAXPROCS, res.CPUs)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_serving.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_serving.json")
	return nil
}

// adaptiveBench runs the planning-vs-execution tradeoff of the greedy fast
// path over the short-statement corpus and writes BENCH_adaptive.json:
// per-arm planning and execution time, tier counts, the plan speedup and
// execution regression ratios, and the bit-identical flag.
func adaptiveBench(queries, rows int) error {
	res := experiments.RunAdaptiveBench(queries, rows, 5, 7)
	for _, a := range res.Arms {
		fmt.Printf("%-8s mean plan=%.1fµs  mean exec=%.1fµs  total est cost=%.0f  tiers=%v\n",
			a.Name, a.MeanPlanMicros, a.MeanExecMicros, a.TotalEstCost, a.Tiers)
	}
	fmt.Printf("plan speedup=%.2fx  exec regression=%.2fx  identical=%v  (gomaxprocs=%d cpus=%d)\n",
		res.PlanSpeedup, res.ExecRegression, res.IdenticalResults, res.GOMAXPROCS, res.NumCPU)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_adaptive.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_adaptive.json")
	return nil
}

// durabilityBench runs the crash-consistency cost sweep and writes
// BENCH_durability.json: cold/warm full-scan wall-clock with CRC32C
// verification on and off (warm overhead should be ~1.0x — the column cache
// pays verification once per block), recovery and scrub time at increasing
// segment counts, and the identical/clean flags.
func durabilityBench(rows int) error {
	res := experiments.RunDurabilityBench(rows, 0, 5, []int{8, 32, 128})
	for _, w := range res.Scans {
		fmt.Printf("scan %-10s cold=%.3fs  warm=%.3fs  rows=%d  identical=%v\n",
			w.Arm, w.ColdWallSec, w.WarmWallSec, w.OutputRows, w.Identical)
	}
	fmt.Printf("checksum overhead: cold=%.3fx warm=%.3fx\n", res.ColdOverhead, res.WarmOverhead)
	for _, r := range res.Recovery {
		fmt.Printf("recover segs=%-4d rows=%-7d recover=%.3fs  scrub=%.3fs  clean=%v\n",
			r.Segments, r.Rows, r.RecoverWallSec, r.ScrubWallSec, r.Clean)
	}
	fmt.Printf("rows=%d segment_rows=%d gomaxprocs=%d cpus=%d\n", res.Rows, res.SegmentRows, res.GOMAXPROCS, res.CPUs)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_durability.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_durability.json")
	return nil
}

func main() {
	start := time.Now()
	if len(os.Args) > 1 && os.Args[1] == "adaptive" {
		queries, rows := 120, 20000
		if len(os.Args) > 2 {
			if _, err := fmt.Sscanf(os.Args[2], "%d", &queries); err != nil {
				fmt.Fprintf(os.Stderr, "bad query count %q: %v\n", os.Args[2], err)
				os.Exit(1)
			}
		}
		if len(os.Args) > 3 {
			if _, err := fmt.Sscanf(os.Args[3], "%d", &rows); err != nil {
				fmt.Fprintf(os.Stderr, "bad row count %q: %v\n", os.Args[3], err)
				os.Exit(1)
			}
		}
		if err := adaptiveBench(queries, rows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("adaptive bench completed in %s\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serving" {
		// Default table size keeps queries short (OLTP-style): the bench
		// measures dispatch overhead — parse + optimize versus re-bind — and
		// on long scans that overhead amortizes to nothing.
		rows, perSession := 2000, 60
		if len(os.Args) > 2 {
			if _, err := fmt.Sscanf(os.Args[2], "%d", &rows); err != nil {
				fmt.Fprintf(os.Stderr, "bad row count %q: %v\n", os.Args[2], err)
				os.Exit(1)
			}
		}
		if len(os.Args) > 3 {
			if _, err := fmt.Sscanf(os.Args[3], "%d", &perSession); err != nil {
				fmt.Fprintf(os.Stderr, "bad per-session count %q: %v\n", os.Args[3], err)
				os.Exit(1)
			}
		}
		if err := servingBench(rows, perSession); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("serving bench completed in %s\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "durability" {
		rows := 200000
		if len(os.Args) > 2 {
			if _, err := fmt.Sscanf(os.Args[2], "%d", &rows); err != nil {
				fmt.Fprintf(os.Stderr, "bad row count %q: %v\n", os.Args[2], err)
				os.Exit(1)
			}
		}
		if err := durabilityBench(rows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("durability bench completed in %s\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "compression" {
		rows := 200000
		if len(os.Args) > 2 {
			if _, err := fmt.Sscanf(os.Args[2], "%d", &rows); err != nil {
				fmt.Fprintf(os.Stderr, "bad row count %q: %v\n", os.Args[2], err)
				os.Exit(1)
			}
		}
		if err := compressionBench(rows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("compression bench completed in %s\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "storage" {
		rows := 200000
		if len(os.Args) > 2 {
			if _, err := fmt.Sscanf(os.Args[2], "%d", &rows); err != nil {
				fmt.Fprintf(os.Stderr, "bad row count %q: %v\n", os.Args[2], err)
				os.Exit(1)
			}
		}
		if err := storageBench(rows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("storage bench completed in %s\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "robustness" {
		if err := robustnessBench(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("robustness bench completed in %s\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		if err := analyzeBench(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("analyze bench completed in %s\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "parallel" {
		if err := parallelBench(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("parallel bench completed in %s\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if len(os.Args) > 1 {
		for _, id := range os.Args[1:] {
			t, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (E1..E29)\n", id)
				os.Exit(1)
			}
			fmt.Println(t.Format())
		}
		return
	}
	for _, t := range experiments.All() {
		fmt.Println(t.Format())
	}
	fmt.Printf("all experiments completed in %s\n", time.Since(start).Round(time.Millisecond))
}
