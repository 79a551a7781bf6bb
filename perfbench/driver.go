package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	queryopt "repro"
)

// engineRun is one set-up engine and the state the loop advances on it.
type engineRun struct {
	eng   *queryopt.Engine
	stmts []*queryopt.Stmt // per shape; nil unless the workload prepares
	dir   string           // storage directory of a disk workload
	// batches counts ingest batches loaded so far: the data generation a
	// read observes, which selects its reference answer.
	batches int
}

// setupStats times one set-up.
type setupStats struct {
	total, load, analyze time.Duration
	loadRows             int
	// heapBytes is the live heap the loaded tables added, for in-memory
	// workloads.
	heapBytes float64
}

// setup builds the measured engine: DDL, load, ANALYZE, Flush and one warm
// pass over every statement shape, ingest included (the first
// secondary-index lookup builds its index lazily).
func (s *spec) setup(dir string) (*engineRun, setupStats, error) {
	var st setupStats
	tables := s.tables()
	before := liveHeap()
	start := time.Now()
	er := &engineRun{eng: queryopt.New(s.options(dir)), dir: dir}
	if err := loadTables(er.eng, s.ddl, tables, &st); err != nil {
		return nil, st, err
	}
	if !s.disk {
		// Exclude the set-up clock while forcing the collection that
		// makes the live-heap reading exact.
		paused := time.Now()
		st.heapBytes = liveHeap() - before
		start = start.Add(time.Since(paused))
	}
	runtime.KeepAlive(tables) // counted in both heap readings, so not in the delta
	t := time.Now()
	if _, err := er.eng.Exec("ANALYZE"); err != nil {
		return nil, st, fmt.Errorf("ANALYZE: %w", err)
	}
	st.analyze = time.Since(t)
	if err := er.eng.Flush(); err != nil {
		return nil, st, fmt.Errorf("flush: %w", err)
	}
	if s.prepared {
		for _, sh := range s.shapes {
			stmt, err := er.eng.Prepare(sh.text)
			if err != nil {
				return nil, st, fmt.Errorf("prepare %s: %w", sh.name, err)
			}
			er.stmts = append(er.stmts, stmt)
		}
	}
	for j, sh := range s.shapes {
		if _, err := er.eng.Exec(sh.lits[0]); err != nil {
			return nil, st, fmt.Errorf("warm %s: %w", sh.name, err)
		}
		if er.stmts != nil {
			if _, err := er.stmts[j].Exec(sh.binds[0]...); err != nil {
				return nil, st, fmt.Errorf("warm prepared %s: %w", sh.name, err)
			}
		}
	}
	if s.ingest != nil {
		if _, _, _, err := s.ingestBatch(er); err != nil {
			return nil, st, err
		}
	}
	st.total = time.Since(start)
	return er, st, nil
}

// loadTables runs the DDL and bulk-loads every table.
func loadTables(eng *queryopt.Engine, ddl []string, data []table, st *setupStats) error {
	for _, d := range ddl {
		if _, err := eng.Exec(d); err != nil {
			return fmt.Errorf("%s: %w", d, err)
		}
	}
	t := time.Now()
	for _, tb := range data {
		if err := eng.LoadRows(tb.name, tb.rows); err != nil {
			return fmt.Errorf("load %s: %w", tb.name, err)
		}
		st.loadRows += len(tb.rows)
	}
	st.load = time.Since(t)
	return nil
}

// ingestBatch loads the next batch and flushes it into a sealed segment.
func (s *spec) ingestBatch(er *engineRun) (n int, load, flush time.Duration, err error) {
	rows := s.ingest(er.batches)
	t := time.Now()
	if err := er.eng.LoadRows(s.ingestTable, rows); err != nil {
		return 0, 0, 0, fmt.Errorf("ingest: %w", err)
	}
	load = time.Since(t)
	t = time.Now()
	if err := er.eng.Flush(); err != nil {
		return 0, 0, 0, fmt.Errorf("ingest flush: %w", err)
	}
	flush = time.Since(t)
	er.batches++
	return len(rows), load, flush, nil
}

// shapeMode is a shape run literally or prepared.
type shapeMode struct {
	shape    int
	prepared bool
}

// answerKey names one distinct statement at one data generation.
type answerKey struct {
	batches, shape, bind int
}

// session is one closed-loop client's private tally.
type session struct {
	rng *rand.Rand
	// i counts the client's operations, and reads its read statements,
	// over all the slices of a loop.
	i, reads int
	// shapeMs holds the latency of every read statement.
	shapeMs   map[shapeMode][]float64
	busy      time.Duration
	ops, errs int
	firstErr  error
	// ingest tallies per batch, for workloads that load while reading.
	ingestRows           []int
	ingestLoad, ingestFl []float64 // ms
	// answers holds every distinct fingerprint seen per statement, with
	// its count, for checking against the reference after the loop.
	answers map[answerKey]map[fingerprint]int
	// stats sums the storage counters of every read statement.
	stats    queryopt.ExecStats
	statsOps int
}

// loopResult is the outcome of one closed-loop measurement.
type loopResult struct {
	sessions []*session
	wall     time.Duration
	allocB   float64
}

// runLoop drives the workload's clients for d, each waiting for every reply
// before sending its next statement. The time is cut into slices; at the
// end of each one every client stops on a rotation boundary, so every shape
// runs equally often, and then pause, when set, runs alone.
func (s *spec) runLoop(er *engineRun, seed int64, d time.Duration, slices int, pause func()) *loopResult {
	res := &loopResult{}
	for i := 0; i < s.sessions; i++ {
		res.sessions = append(res.sessions, &session{
			rng:     rand.New(rand.NewSource(seed*1000 + int64(i))),
			answers: map[answerKey]map[fingerprint]int{},
			shapeMs: map[shapeMode][]float64{},
		})
	}
	for k := 0; k < slices; k++ {
		runtime.GC() // every slice starts from the same heap, not earlier garbage
		allocs := heapAllocs()
		// A slice that overran its share, to finish a rotation, shortens
		// the next one, so the loop as a whole runs for about d.
		start := time.Now()
		deadline := start.Add(d*time.Duration(k+1)/time.Duration(slices) - res.wall)
		var wg sync.WaitGroup
		for _, sess := range res.sessions {
			wg.Add(1)
			go func(sess *session) {
				defer wg.Done()
				for ; ; sess.i++ {
					if sess.reads%len(s.schedule) == 0 && !time.Now().Before(deadline) {
						return
					}
					if s.ingest != nil && (sess.i+1)%s.ingestEvery == 0 {
						s.ingestOp(er, sess)
						continue
					}
					s.readOp(er, sess, s.schedule[sess.reads%len(s.schedule)], s.prepared && sess.i%2 == 1)
					sess.reads++
				}
			}(sess)
		}
		wg.Wait()
		res.wall += time.Since(start)
		res.allocB += heapAllocs() - allocs
		if pause != nil {
			pause()
		}
	}
	return res
}

// ingestOp loads and flushes the next batch and records its timings.
func (s *spec) ingestOp(er *engineRun, sess *session) {
	sess.ops++
	t := time.Now()
	n, load, flush, err := s.ingestBatch(er)
	sess.busy += time.Since(t)
	if err != nil {
		sess.fail(err)
		return
	}
	sess.ingestRows = append(sess.ingestRows, n)
	sess.ingestLoad = append(sess.ingestLoad, ms(load))
	sess.ingestFl = append(sess.ingestFl, ms(flush))
}

// readOp runs shape j with a drawn binding, prepared or literal, and records
// its latency and its answer's fingerprint.
func (s *spec) readOp(er *engineRun, sess *session, j int, prepared bool) {
	sh := &s.shapes[j]
	b := sess.rng.Intn(len(sh.binds))
	sess.ops++
	var res *queryopt.Result
	var err error
	t := time.Now()
	if prepared {
		res, err = er.stmts[j].Exec(sh.binds[b]...)
	} else {
		res, err = er.eng.Exec(sh.lits[b])
	}
	lat := time.Since(t)
	sess.busy += lat
	if err != nil {
		sess.fail(fmt.Errorf("%s: %w", sh.name, err))
		return
	}
	sm := shapeMode{j, prepared}
	sess.shapeMs[sm] = append(sess.shapeMs[sm], ms(lat))
	addStats(&sess.stats, res.Stats)
	sess.statsOps++
	key := answerKey{batches: er.batches, shape: j, bind: b}
	m := sess.answers[key]
	if m == nil {
		m = map[fingerprint]int{}
		sess.answers[key] = m
	}
	m[fingerprintRows(res.Rows)]++
}

func (sess *session) fail(err error) {
	sess.errs++
	if sess.firstErr == nil {
		sess.firstErr = err
	}
}

// addStats adds the storage counters of one statement to a running sum.
func addStats(sum *queryopt.ExecStats, st queryopt.ExecStats) {
	sum.SegmentsRead += st.SegmentsRead
	sum.SegmentsPruned += st.SegmentsPruned
	sum.BytesRead += st.BytesRead
	sum.BlocksDict += st.BlocksDict
	sum.BlocksRLE += st.BlocksRLE
	sum.BlocksPlain += st.BlocksPlain
}

// verify computes the reference answer of every distinct statement the loop
// ran, at the data generation it ran against, on an engine loaded with the
// same rows, and counts the operations whose answer differed. The reference
// engine replays ingest batches in order as generations advance.
func (s *spec) verify(answers map[answerKey]map[fingerprint]int) (wrong int, err error) {
	keys := make([]answerKey, 0, len(answers))
	for k := range answers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].batches != keys[b].batches {
			return keys[a].batches < keys[b].batches
		}
		if keys[a].shape != keys[b].shape {
			return keys[a].shape < keys[b].shape
		}
		return keys[a].bind < keys[b].bind
	})
	// The engines are built on first use, so a workload whose shapes all
	// use one of them never loads the other.
	refs := map[bool]*queryopt.Engine{}
	opts := map[bool]queryopt.Options{
		false: s.refOptions,
		true:  {Optimizer: queryopt.Cascades},
	}
	loaded := map[bool]int{}
	for _, k := range keys {
		sh := &s.shapes[k.shape]
		ref := refs[sh.crossCheck]
		if ref == nil {
			ref = queryopt.New(opts[sh.crossCheck])
			defer ref.Close()
			var st setupStats
			if err := loadTables(ref, s.ddl, s.tables(), &st); err != nil {
				return 0, fmt.Errorf("reference: %w", err)
			}
			if _, err := ref.Exec("ANALYZE"); err != nil {
				return 0, fmt.Errorf("reference ANALYZE: %w", err)
			}
			refs[sh.crossCheck] = ref
		}
		for ; loaded[sh.crossCheck] < k.batches; loaded[sh.crossCheck]++ {
			if err := ref.LoadRows(s.ingestTable, s.ingest(loaded[sh.crossCheck])); err != nil {
				return 0, fmt.Errorf("reference ingest: %w", err)
			}
		}
		res, err := ref.Exec(sh.lits[k.bind])
		if err != nil {
			return 0, fmt.Errorf("reference %s: %w", sh.name, err)
		}
		want := fingerprintRows(res.Rows)
		for got, n := range answers[k] {
			if !got.same(want, sh.ordered) {
				wrong += n
				fmt.Fprintf(os.Stderr, "perfbench: wrong answer: %s %q after %d batches: got %v, want %v\n",
					sh.name, sh.lits[k.bind], k.batches, got, want)
			}
		}
	}
	return wrong, nil
}

// mergeAnswers folds every session's answers into one map.
func mergeAnswers(sessions []*session) map[answerKey]map[fingerprint]int {
	all := map[answerKey]map[fingerprint]int{}
	for _, sess := range sessions {
		for k, m := range sess.answers {
			if all[k] == nil {
				all[k] = map[fingerprint]int{}
			}
			for fp, n := range m {
				all[k][fp] += n
			}
		}
	}
	return all
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

// heapAllocs is the cumulative bytes allocated on the heap.
func heapAllocs() float64 { return float64(readMetric("/gc/heap/allocs:bytes").Uint64()) }

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() float64 {
	runtime.GC()
	return float64(readMetric("/gc/heap/live:bytes").Uint64())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
