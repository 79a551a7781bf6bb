// Command perfbench is the repository's end-to-end benchmark. It drives the
// public queryopt API (SQL text in, [][]any out) over three seeded
// workloads, checks every answer against a reference engine, and prints one
// JSON object as its last line of output: end-to-end metrics from an
// untraced run (--trace 0), or the per-layer split from a traced run
// (--trace 1). See README.md for the workloads and the metric map.
//
//	go run . --workload star-olap --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	queryopt "repro"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envelope describes the run; it is printed before the report.
type envelope struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      int            `json:"trace"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Samples    map[string]int `json:"samples"`
	// Info holds values printed for reading but not gated.
	Info map[string]float64 `json:"info"`
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median.
const setupReps = 3

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	s, err := newSpec(workload, seed, defaultScale())
	if err != nil {
		return err
	}
	// Storage files stay inside the working directory.
	work, err := os.MkdirTemp(".", ".perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	env := &envelope{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(),
		Samples: map[string]int{}, Info: map[string]float64{},
	}
	d := time.Duration(seconds) * time.Second
	var rep *report
	if trace == 1 {
		rep, err = s.traced(work, seed, d, env)
	} else {
		rep, err = s.untraced(work, seed, d, env)
	}
	if err != nil {
		return err
	}
	return emit(env, rep)
}

// untraced sets the workload up setupReps times, measures the last engine in
// a closed loop, checks every answer, and reports the end-to-end metrics.
func (s *spec) untraced(work string, seed int64, d time.Duration, env *envelope) (*report, error) {
	var er *engineRun
	var setups, heapPerRow []float64
	for i := 0; i < setupReps; i++ {
		er = nil // release the previous engine before measuring the next
		dir := ""
		if s.disk {
			dir = filepath.Join(work, fmt.Sprintf("setup%d", i))
		}
		var st setupStats
		var err error
		if er, st, err = s.setup(dir); err != nil {
			return nil, err
		}
		setups = append(setups, st.total.Seconds())
		heapPerRow = append(heapPerRow, st.heapBytes/float64(st.loadRows))
		if i < setupReps-1 && dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	// In-memory workloads time bulk loads between the slices of the loop,
	// so the load rate is sampled across the whole run, not in one burst.
	slices := 1
	var pause func()
	var loadRates []float64
	var loadErr error
	if !s.disk {
		tables := s.tables()
		slices = loopSlices
		pause = func() {
			if loadErr == nil {
				loadErr = s.bulkLoads(tables, bulkLoadPause, &loadRates)
			}
		}
	}
	lr := s.runLoop(er, seed, d, slices, pause)
	if loadErr != nil {
		return nil, loadErr
	}

	var lat []float64
	var rate float64
	ops, errs := 0, 0
	var firstErr error
	var batchRates []float64
	for _, sess := range lr.sessions {
		for _, xs := range sess.shapeMs {
			lat = append(lat, xs...)
		}
		rate += float64(sess.ops) / sess.busy.Seconds()
		ops += sess.ops
		errs += sess.errs
		if firstErr == nil {
			firstErr = sess.firstErr
		}
		for i := range sess.ingestLoad {
			batchRates = append(batchRates, float64(sess.ingestRows[i])/((sess.ingestLoad[i]+sess.ingestFl[i])/1e3))
		}
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first error:", firstErr)
	}
	t := time.Now()
	wrong, err := s.verify(mergeAnswers(lr.sessions))
	if err != nil {
		return nil, err
	}
	env.Info["verify_s"] = time.Since(t).Seconds()
	for j, sh := range s.shapes {
		for _, prepared := range []bool{false, true} {
			var xs []float64
			for _, sess := range lr.sessions {
				xs = append(xs, sess.shapeMs[shapeMode{j, prepared}]...)
			}
			if len(xs) > 0 {
				env.Info[fmt.Sprintf("p50_ms.%s.%s", sh.name, map[bool]string{false: "literal", true: "prepared"}[prepared])] = median(xs)
			}
		}
	}
	m := map[string]metric{
		"throughput_qps":    {rate, "1/s"},
		"latency_p50_ms":    {percentile(lat, 0.5), "ms"},
		"latency_p90_ms":    {percentile(lat, 0.9), "ms"},
		"setup_s":           {median(setups), "s"},
		"alloc_kb_per_stmt": {lr.allocB / float64(ops) / 1024, "KiB"},
	}
	if s.disk {
		stored, err := dirBytes(er.dir)
		if err != nil {
			return nil, err
		}
		// The median batch, because a batch's fsyncs now and then stall.
		m["ingest_rows_per_s"] = metric{median(batchRates), "rows/s"}
		m["stored_bytes_per_row"] = metric{float64(stored) / float64(s.storedRows(er)), "B"}
		env.Samples["ingest_rows_per_s"] = len(batchRates)
	} else {
		m["ingest_rows_per_s"] = metric{median(loadRates), "rows/s"}
		m["stored_bytes_per_row"] = metric{median(heapPerRow), "B"}
		env.Samples["ingest_rows_per_s"] = len(loadRates)
	}
	env.Samples["throughput_qps"] = ops
	env.Samples["latency_p50_ms"] = len(lat)
	env.Samples["latency_p90_ms"] = len(lat)
	env.Samples["setup_s"] = len(setups)
	env.Samples["alloc_kb_per_stmt"] = ops
	env.Samples["stored_bytes_per_row"] = 1
	env.Info["latency_p99_ms"] = percentile(lat, 0.99)
	env.Info["loop_wall_s"] = lr.wall.Seconds()
	failed := errs + wrong
	env.Info["failed_frac"] = float64(failed) / float64(ops)
	return &report{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: m}, nil
}

// loopSlices is how many slices an in-memory workload's loop is cut into,
// with bulkLoadPause of bulk loads after each.
const (
	loopSlices    = 10
	bulkLoadPause = 200 * time.Millisecond
)

// bulkLoads loads tables into fresh in-memory engines for about d, at least
// once, and appends each load's rows per second to rates.
//
// The collector is paused while LoadRows runs, and each load is charged
// instead with one full collection of the heap it leaves behind, timed with
// the load. Left running, the collector's concurrent cycles made single
// loads vary by ±15% on a shared 2-vCPU host, depending on whether the
// second core was free; the forced collection still charges a load for the
// memory its stored rows keep live.
func (s *spec) bulkLoads(tables []table, d time.Duration, rates *[]float64) error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for start := time.Now(); time.Since(start) < d; {
		runtime.GC() // each load starts from the same heap
		var st setupStats
		eng := queryopt.New(queryopt.Options{})
		if err := loadTables(eng, s.ddl, tables, &st); err != nil {
			return err
		}
		t := time.Now()
		runtime.GC()
		gc := time.Since(t)
		runtime.KeepAlive(eng) // live through the charged collection
		*rates = append(*rates, float64(st.loadRows)/(st.load+gc).Seconds())
	}
	return nil
}

// storedRows counts the rows the measured engine holds.
func (s *spec) storedRows(er *engineRun) int {
	n := s.rows
	if s.ingest != nil {
		for i := 0; i < er.batches; i++ {
			n += len(s.ingest(i))
		}
	}
	return n
}

// emit writes every metric with its unit to standard error, the envelope
// as one JSON line, and the report as the last line of standard output.
func emit(env *envelope, rep *report) error {
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-34s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	fmt.Fprintf(os.Stderr, "%-34s %14d/%d\n", "failed/attempted", rep.Failed, rep.Attempted)
	e, err := json.Marshal(map[string]any{"envelope": env})
	if err != nil {
		return err
	}
	r, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(e))
	fmt.Println(string(r))
	if !rep.Correct {
		return errors.New("some answers were wrong or failed")
	}
	return nil
}

// commit is the VCS revision stamped into the binary, when there is one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
