package experiments

// e_storage.go measures the disk-backed columnar segment store
// (internal/storage): scan wall-clock cold (fresh store, column cache empty)
// and warm (cache hot) at three predicate selectivities, with zone-map
// segment elimination on and off, against the in-memory heap as the
// correctness baseline. The pruned arm must read a small fraction of the
// segments at high selectivity while returning bit-identical rows.
// RunStorageBench is shared by experiment E27 (small workload) and
// `benchharness storage`, which writes the larger run to BENCH_storage.json.

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// StorageBenchRow is one (selectivity, arm) measurement.
type StorageBenchRow struct {
	Selectivity float64 `json:"selectivity"`
	// Arm is "pruned" (zone maps on) or "unpruned" (every segment read).
	Arm            string  `json:"arm"`
	ColdWallSec    float64 `json:"cold_wall_seconds"`
	WarmWallSec    float64 `json:"warm_wall_seconds"`
	MemWallSec     float64 `json:"mem_wall_seconds"`
	SegmentsRead   int64   `json:"segments_read"`
	SegmentsPruned int64   `json:"segments_pruned"`
	ColdBytesRead  int64   `json:"cold_bytes_read"`
	OutputRows     int     `json:"output_rows"`
	// Identical certifies the disk arm returned exactly the in-memory
	// engine's rows, in order, floats bit-exact.
	Identical bool `json:"identical"`
}

// StorageBenchResult is the full sweep plus host information.
type StorageBenchResult struct {
	Rows        int               `json:"rows"`
	SegmentRows int               `json:"segment_rows"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	CPUs        int               `json:"cpus"`
	Workloads   []StorageBenchRow `json:"workloads"`
}

func storageBenchDef() *catalog.Table {
	return &catalog.Table{
		Name: "m",
		Cols: []catalog.Column{
			{Name: "k", Kind: datum.KindInt, NotNull: true},
			{Name: "v", Kind: datum.KindFloat},
		},
	}
}

// RunStorageBench loads a table clustered on k (so zone maps carry tight,
// disjoint ranges), then scans it with `k < rows*sel` for each selectivity:
// cold and warm, pruned and unpruned, and in memory. Best of reps.
func RunStorageBench(rows, segRows, reps int) *StorageBenchResult {
	if segRows <= 0 {
		segRows = storage.DefaultSegmentRows
	}
	dir, err := os.MkdirTemp("", "qopt-storage-bench-*")
	if err != nil {
		panic(fmt.Sprintf("experiments: storage bench: %v", err))
	}
	defer os.RemoveAll(dir)

	def := storageBenchDef()
	rng := rand.New(rand.NewSource(27))
	data := make([]datum.Row, rows)
	for i := range data {
		data[i] = datum.Row{datum.NewInt(int64(i)), datum.NewFloat(rng.NormFloat64() * 100)}
	}

	memStore := storage.NewStore()
	memTab, err := memStore.CreateTable(def)
	if err == nil {
		err = memTab.InsertBatch(data)
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: storage bench: %v", err))
	}
	diskStore := storage.NewStoreWith(storage.StoreConfig{Dir: dir, SegmentRows: segRows})
	diskTab, err := diskStore.CreateTable(def)
	if err == nil {
		err = diskTab.InsertBatch(data)
	}
	if err == nil {
		err = diskTab.Flush() // seal the tail so reopened stores see every row
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: storage bench: %v", err))
	}

	md := logical.NewMetadata()
	cols := md.AddTable(def, "m")
	scanPlan := func(limit int64) physical.Plan {
		return &physical.TableScan{
			Table: def, Binding: "m", Cols: cols, ColOrds: []int{0, 1},
			Filter: []logical.Scalar{&logical.Cmp{
				Op: logical.CmpLt, L: &logical.Col{ID: cols[0]}, R: &logical.Const{Val: datum.NewInt(limit)},
			}},
		}
	}
	run := func(store *storage.Store, p physical.Plan, noPrune bool) (float64, *exec.Counters, []datum.Row) {
		ctx := exec.NewCtx(store, md)
		ctx.NoPrune = noPrune
		start := time.Now()
		res, err := exec.Run(p, ctx)
		sec := time.Since(start).Seconds()
		if err != nil {
			panic(fmt.Sprintf("experiments: storage bench: %v", err))
		}
		return sec, &ctx.Counters, res.Rows
	}

	out := &StorageBenchResult{
		Rows: rows, SegmentRows: segRows,
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU(),
	}
	for _, sel := range []float64{0.001, 0.1, 1.0} {
		p := scanPlan(int64(float64(rows) * sel))
		memSec, _, memRows := run(memStore, p, false)
		for _, arm := range []struct {
			name    string
			noPrune bool
		}{{"pruned", false}, {"unpruned", true}} {
			var best StorageBenchRow
			for rep := 0; rep < reps; rep++ {
				// Cold: a fresh store over the same directory starts with an
				// empty column cache; only segment footers are read at open.
				coldStore := storage.NewStoreWith(storage.StoreConfig{Dir: dir, SegmentRows: segRows})
				if _, err := coldStore.CreateTable(def); err != nil {
					panic(fmt.Sprintf("experiments: storage bench: %v", err))
				}
				coldSec, coldCtr, _ := run(coldStore, p, arm.noPrune)
				warmSec, warmCtr, warmRows := run(coldStore, p, arm.noPrune)
				if rep == 0 || coldSec < best.ColdWallSec {
					identical := len(warmRows) == len(memRows)
					if identical {
						for i := range warmRows {
							if warmRows[i].String() != memRows[i].String() {
								identical = false
								break
							}
						}
					}
					best = StorageBenchRow{
						Selectivity: sel, Arm: arm.name,
						ColdWallSec: coldSec, WarmWallSec: warmSec, MemWallSec: memSec,
						SegmentsRead: warmCtr.SegmentsRead, SegmentsPruned: warmCtr.SegmentsPruned,
						ColdBytesRead: coldCtr.BytesRead,
						OutputRows:    len(warmRows), Identical: identical,
					}
				}
			}
			out.Workloads = append(out.Workloads, best)
		}
	}
	return out
}

// E27Storage measures disk-backed columnar segments with zone-map pruning:
// the §5.2 I/O cost term made real. Min/max zone maps over clustered keys
// let the scan eliminate segments without reading them, so the pages charged
// (and the bytes read) track predicate selectivity instead of table size;
// the unpruned arm is the control. The `identical` column certifies the disk
// path returned exactly the in-memory rows.
func E27Storage() Table {
	t := Table{
		ID:      "E27",
		Title:   "Disk-backed columnar segments with zone-map pruning (§5.2)",
		Claim:   "segment elimination makes scan I/O track selectivity, at identical results",
		Headers: []string{"selectivity", "arm", "segs read", "segs pruned", "cold ms", "warm ms", "mem ms", "out rows", "identical"},
	}
	res := RunStorageBench(40000, 1024, 2)
	for _, w := range res.Workloads {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", w.Selectivity),
			w.Arm,
			d(int(w.SegmentsRead)),
			d(int(w.SegmentsPruned)),
			f2(w.ColdWallSec * 1000),
			f2(w.WarmWallSec * 1000),
			f2(w.MemWallSec * 1000),
			d(w.OutputRows),
			fmt.Sprintf("%v", w.Identical),
		})
	}
	t.Notes = fmt.Sprintf("rows=%d segment_rows=%d gomaxprocs=%d cpus=%d; single-threaded; cold = fresh store (empty column cache), warm = cache hot",
		res.Rows, res.SegmentRows, res.GOMAXPROCS, res.CPUs)
	return t
}
