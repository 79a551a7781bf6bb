package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// tiny shrinks every workload so the smoke test runs in seconds.
var tiny = scale{
	factRows: 2000, dimRows: 20,
	emps: 500, depts: 10,
	eventRows: 3000, batchRow: 256,
	poolSize: 3,
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	var names []string
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("%s metrics %v, BENCHMARK.json declares %v", what, names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("%s metrics %v, BENCHMARK.json declares %v", what, names, want)
		}
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at a tiny
// size: every answer must check out, and the metrics must be exactly the
// ones BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			s, err := newSpec(name, 7, tiny)
			if err != nil {
				t.Fatal(err)
			}
			env := &envelope{Samples: map[string]int{}, Info: map[string]float64{}}
			var rep *report
			if trace == 1 {
				rep, err = s.traced(t.TempDir(), 7, time.Second, env)
			} else {
				rep, err = s.untraced(t.TempDir(), 7, 300*time.Millisecond, env)
			}
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s trace=%d: %d of %d failed", name, trace, rep.Failed, rep.Attempted)
			}
			if trace == 1 {
				sameNames(t, name+" traced", rep.Metrics, perLayer)
			} else {
				sameNames(t, name, rep.Metrics, endToEnd)
				for k, m := range rep.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
					}
				}
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := newSpec(name, 3, tiny)
		b, _ := newSpec(name, 3, tiny)
		c, _ := newSpec(name, 4, tiny)
		ta, tb, tc := a.tables(), b.tables(), c.tables()
		fa, fb, fc := fingerprintRows(ta[len(ta)-1].rows), fingerprintRows(tb[len(tb)-1].rows), fingerprintRows(tc[len(tc)-1].rows)
		if !fa.same(fb, true) {
			t.Errorf("%s: same seed gave different data", name)
		}
		if fa.same(fc, true) {
			t.Errorf("%s: different seeds gave the same data", name)
		}
	}
}

func TestFingerprint(t *testing.T) {
	rows := [][]any{{int64(1), "a", 0.1}, {int64(2), nil, 0.2}}
	swapped := [][]any{rows[1], rows[0]}
	if !fingerprintRows(rows).same(fingerprintRows(swapped), false) {
		t.Error("unordered comparison depends on row order")
	}
	if fingerprintRows(rows).same(fingerprintRows(swapped), true) {
		t.Error("ordered comparison ignores row order")
	}
	lastBit := [][]any{{int64(1), "a", 0.1 + 1e-17}, {int64(2), nil, 0.30000000000000004 - 0.1}}
	if fingerprintRows(rows).same(fingerprintRows(lastBit), false) {
		t.Error("exact comparison ignores a last-bit float difference")
	}
	if !closeRows(rows, lastBit) {
		t.Error("tolerant comparison sees a last-bit float difference")
	}
	if closeRows(rows, swapped) {
		t.Error("tolerant comparison ignores row order")
	}
	if fingerprintRows([][]any{{int64(1)}}).same(fingerprintRows([][]any{{1.0}}), false) {
		t.Error("int64 1 and float64 1 compare equal")
	}
}

func TestStatistics(t *testing.T) {
	if got := percentile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if r, ok := spearman([]float64{1, 2, 3}, []float64{10, 30, 20}); !ok || r != 0.5 {
		t.Errorf("spearman = %v %v, want 0.5", r, ok)
	}
	if _, ok := spearman([]float64{1, 1}, []float64{1, 2}); ok {
		t.Error("spearman of a constant sample is defined")
	}
	if got := literal("a = ? AND b = ?", []any{int64(3), "x"}); got != "a = 3 AND b = 'x'" {
		t.Errorf("literal = %q", got)
	}
}
