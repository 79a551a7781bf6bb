package queryopt

// sort_limit_test.go checks the batch Sort and LIMIT operators. ORDER BY …
// LIMIT shapes must return exactly the reference evaluator's rows in exactly
// its order (ties keep input order) at parallelism 1, 4 and 8 over memory,
// plain disk and compressed disk storage. The meters must show what a bounded
// top-N saves: linear comparisons, k rows of working memory and no spill
// under a budget that makes the full sort spill. Cancellation during a full
// sort and during a top-N must surface as the context's error at every
// degree without leaking goroutines.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSortLimitShapes: ORDER BY … LIMIT against the reference, row order and
// float bits exact.
func TestSortLimitShapes(t *testing.T) {
	shapes := []struct {
		name, q string
		noSort  bool // the plan must limit an index-ordered input without a sort node
	}{
		{"ties-and-nulls", "SELECT x.pk, x.a, x.f FROM r x ORDER BY x.a LIMIT 40", false},
		{"null-float-key", "SELECT x.pk, x.f FROM r x ORDER BY x.f LIMIT 30", false},
		{"desc", "SELECT x.pk, x.f FROM r x ORDER BY x.f DESC LIMIT 25", false},
		{"mixed-directions", "SELECT x.pk, x.a, x.s, x.f FROM r x ORDER BY x.s, x.a DESC, x.f LIMIT 60", false},
		{"multi-key-desc", "SELECT x.pk, x.fk, x.a FROM r x ORDER BY x.fk DESC, x.a DESC LIMIT 33", false},
		{"filtered-input", "SELECT x.pk, x.f FROM r x WHERE x.a < 5 ORDER BY x.f, x.pk DESC LIMIT 15", false},
		{"dict-string-key", "SELECT x.s, x.pk FROM r x ORDER BY x.s DESC LIMIT 30", false},
		{"string-key-full-sort", "SELECT x.s, x.pk, x.f FROM r x WHERE x.f > 100 ORDER BY x.s, x.f DESC", false},
		{"limit-0", "SELECT x.pk FROM r x ORDER BY x.a LIMIT 0", false},
		{"limit-at-row-count", "SELECT x.pk, x.f FROM r x ORDER BY x.f DESC LIMIT 2200", false},
		{"limit-above-row-count", "SELECT x.pk, x.s FROM r x ORDER BY x.s LIMIT 5000", false},
		{"limit-over-group-by", "SELECT x.a, COUNT(*), SUM(x.f) FROM r x GROUP BY x.a ORDER BY x.a DESC LIMIT 5", false},
		{"limit-over-index-order", "SELECT x.pk, x.a FROM r x WHERE x.pk >= 100 AND x.pk < 400 ORDER BY x.pk LIMIT 9", true},
	}
	storages := []struct {
		name string
		opts func() Options
	}{
		{"memory", func() Options { return Options{} }},
		{"disk", func() Options {
			return Options{StorageDir: t.TempDir(), SegmentRows: 512, DisableCompression: true}
		}},
		{"compressed", func() Options { return Options{StorageDir: t.TempDir(), SegmentRows: 512} }},
	}
	ref := midRandSchema(t, Options{Optimizer: Reference}, 9)
	want := make([]*Result, len(shapes))
	for i, sh := range shapes {
		var err error
		if want[i], err = ref.Exec(sh.q); err != nil {
			t.Fatalf("%s reference: %v", sh.name, err)
		}
	}
	for _, st := range storages {
		for _, par := range []int{1, 4, 8} {
			opts := st.opts()
			opts.Optimizer, opts.Parallelism = SystemR, par
			e := midRandSchema(t, opts, 9)
			for i, sh := range shapes {
				label := sh.name + "/" + st.name + "/par" + string(rune('0'+par))
				got, an, err := e.QueryAnalyze(sh.q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if g, w := orderedRows(got), orderedRows(want[i]); g != w {
					t.Fatalf("%s: rows differ from the reference (%d vs %d rows)\ngot: %.400v\nref: %.400v\nplan:\n%s",
						label, len(got.Rows), len(want[i].Rows), g, w, an.Text)
				}
				ops := assertBatchPath(t, an, label)
				var sorted, limited bool
				for _, op := range ops {
					sorted = sorted || strings.HasPrefix(op, "sort")
					limited = limited || strings.HasPrefix(op, "limit")
				}
				if sh.noSort && (sorted || !limited) {
					t.Errorf("%s: want a limit over an index-ordered input and no sort:\n%s", label, an.Text)
				}
			}
		}
	}
}

// shuffledTable loads n rows (pk, v, v/8) where v is a random permutation of
// [0, n), so a sort on v sees no ties and no presorted runs.
func shuffledTable(t *testing.T, opts Options, n int) *Engine {
	t.Helper()
	e := New(opts)
	t.Cleanup(e.Close)
	e.MustExec(`CREATE TABLE big (pk INT NOT NULL, v INT, f FLOAT, PRIMARY KEY (pk))`)
	perm := rand.New(rand.NewSource(int64(n))).Perm(n)
	rows := make([][]any, n)
	for i, v := range perm {
		rows[i] = []any{i, v, float64(v) / 8}
	}
	if err := e.LoadRows("big", rows); err != nil {
		t.Fatal(err)
	}
	e.MustExec("ANALYZE")
	return e
}

const (
	topNQuery = `SELECT b.pk, b.v, b.f FROM big b ORDER BY b.v LIMIT 10`
	fullQuery = `SELECT b.pk, b.v, b.f FROM big b ORDER BY b.v`
)

// TestSortLimitBudgetMeters: over 50k shuffled rows, LIMIT 10 costs fewer
// than 2n comparisons where the full sort costs at least n·log2(n)/2, and
// its peak working memory is about 10 of the full sort's n rows.
func TestSortLimitBudgetMeters(t *testing.T) {
	const n, k = 50_000, 10
	for _, par := range []int{1, 4} {
		e := shuffledTable(t, Options{Optimizer: SystemR, Parallelism: par}, n)
		top, err := e.Exec(topNQuery)
		if err != nil {
			t.Fatal(err)
		}
		full, err := e.Exec(fullQuery)
		if err != nil {
			t.Fatal(err)
		}
		if len(top.Rows) != k || orderedRows(&Result{Rows: full.Rows[:k]}) != orderedRows(top) {
			t.Fatalf("par %d: LIMIT %d is not the full sort's prefix", par, k)
		}
		if c := top.Stats.Comparisons; c >= 2*n {
			t.Errorf("par %d: top-%d made %d comparisons, want < 2n = %d", par, k, c, 2*n)
		}
		if c, lo := full.Stats.Comparisons, int64(n*math.Log2(n)/2); c < lo {
			t.Errorf("par %d: full sort made %d comparisons, want >= n·log2(n)/2 = %d", par, c, lo)
		}
		perRow := full.Stats.PeakMemBytes / n
		if p := top.Stats.PeakMemBytes; p < k*perRow/2 || p > 2*k*perRow {
			t.Errorf("par %d: top-%d peak memory %d bytes, want about %d rows of %d bytes",
				par, k, p, k, perRow)
		}
	}
}

// TestSortLimitBudgetSpill: under a budget that makes the full sort spill,
// the top-N fits, spills nothing and returns the unbudgeted rows.
func TestSortLimitBudgetSpill(t *testing.T) {
	const n = 50_000
	for _, par := range []int{1, 4} {
		free := shuffledTable(t, Options{Optimizer: SystemR, Parallelism: par}, n)
		want, err := free.Exec(topNQuery)
		if err != nil {
			t.Fatal(err)
		}
		wantFull, err := free.Exec(fullQuery)
		if err != nil {
			t.Fatal(err)
		}
		tight := shuffledTable(t, Options{Optimizer: SystemR, Parallelism: par, MemBudget: wantFull.Stats.PeakMemBytes / 4}, n)
		full, err := tight.Exec(fullQuery)
		if err != nil {
			t.Fatal(err)
		}
		if full.Stats.Spills == 0 {
			t.Fatalf("par %d: the full sort did not spill under a quarter of its memory", par)
		}
		if orderedRows(full) != orderedRows(wantFull) {
			t.Fatalf("par %d: spilled full sort differs from the unbudgeted one", par)
		}
		top, err := tight.Exec(topNQuery)
		if err != nil {
			t.Fatal(err)
		}
		if top.Stats.Spills != 0 || top.Stats.SpillBytes != 0 {
			t.Errorf("par %d: top-N spilled %d files (%d bytes)", par, top.Stats.Spills, top.Stats.SpillBytes)
		}
		if orderedRows(top) != orderedRows(want) {
			t.Errorf("par %d: budgeted top-N rows differ from the unbudgeted ones", par)
		}
		// A top-N whose kept rows do not fit either degrades to the
		// external sort and keeps its prefix.
		starved := shuffledTable(t, Options{Optimizer: SystemR, Parallelism: par, MemBudget: spillBudget}, n)
		const k = 2000
		wide, err := starved.Exec(fmt.Sprintf("%s LIMIT %d", fullQuery, k))
		if err != nil {
			t.Fatal(err)
		}
		if wide.Stats.Spills == 0 {
			t.Errorf("par %d: top-%d did not spill under a %d-byte budget", par, k, spillBudget)
		}
		if orderedRows(wide) != orderedRows(&Result{Rows: wantFull.Rows[:k]}) {
			t.Errorf("par %d: spilled top-%d is not the full sort's prefix", par, k)
		}
	}
}

// pollCtx is a context whose Err reports err from the (after+1)-th poll on,
// so a cancellation or deadline lands at a chosen point of an execution. It
// counts polls from every worker.
type pollCtx struct {
	context.Context
	polls atomic.Int64
	after int64
	err   error
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return c.err
	}
	return nil
}

// countPolls runs q to completion and returns how many times it polled its
// context.
func countPolls(t *testing.T, e *Engine, q string) int64 {
	t.Helper()
	ctx := &pollCtx{Context: context.Background(), after: math.MaxInt64}
	if _, err := e.ExecContext(ctx, q); err != nil {
		t.Fatal(err)
	}
	return ctx.polls.Load()
}

// TestSortCancelDuringSortAndTopN: a cancellation or an expired deadline that
// lands while a 200k-row full sort or top-N is running returns the context's
// error at parallelism 1, 4 and 8, and no goroutine outlives the engines.
func TestSortCancelDuringSortAndTopN(t *testing.T) {
	const n = 200_000
	baseline := runtime.NumGoroutine()
	for _, par := range []int{1, 4, 8} {
		e := shuffledTable(t, Options{Optimizer: SystemR, Parallelism: par}, n)
		// The sort's polls are those past the ones of the same scan alone.
		scan := countPolls(t, e, `SELECT b.pk, b.v, b.f FROM big b`)
		for _, q := range []string{fullQuery, topNQuery} {
			total := countPolls(t, e, q)
			if total-scan < 100 {
				t.Fatalf("par %d: %q polls %d times beyond its scan's %d", par, q, total-scan, scan)
			}
			for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
				ctx := &pollCtx{Context: context.Background(), after: (scan + total) / 2, err: cause}
				if _, err := e.ExecContext(ctx, q); !errors.Is(err, cause) {
					t.Fatalf("par %d: %q stopped mid-sort returned %v, want %v", par, q, err, cause)
				}
			}
		}
		if _, err := e.Exec(topNQuery); err != nil {
			t.Fatalf("par %d: engine broken after cancel: %v", par, err)
		}
		e.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d > baseline %d\n%s", g, baseline, buf[:runtime.Stack(buf, true)])
	}
}
