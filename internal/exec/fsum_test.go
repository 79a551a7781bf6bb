package exec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datum"
)

// TestCompSumOrderIndependent: any ordering of the same multiset of floats
// must round to the same bits.
func TestCompSumOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		vals := make([]float64, n)
		for i := range vals {
			// Wildly mixed magnitudes to provoke cancellation.
			vals[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-10))
		}
		var serial compSum
		for _, v := range vals {
			serial.add(v)
		}
		var shuffled compSum
		for _, pi := range rng.Perm(n) {
			shuffled.add(vals[pi])
		}
		if got, want := shuffled.value(), serial.value(); got != want {
			t.Fatalf("trial %d: in order=%x shuffled=%x (n=%d)", trial, want, got, n)
		}
	}
}

// TestCompSumExact: the expansion is exact where a naive sum is not.
func TestCompSumExact(t *testing.T) {
	var c compSum
	c.add(1e16)
	c.add(1)
	c.add(-1e16)
	if got := c.value(); got != 1 {
		t.Fatalf("1e16 + 1 - 1e16 = %v, want 1", got)
	}
	var d compSum
	for i := 0; i < 10; i++ {
		d.add(0.1)
	}
	naive := 0.0
	for i := 0; i < 10; i++ {
		naive += 0.1
	}
	if got := d.value(); got != 1.0 {
		t.Fatalf("10 * 0.1 = %v, want exactly 1.0 (naive gives %v)", got, naive)
	}
}

// TestCompSumSpecials: infinities and NaNs still propagate.
func TestCompSumSpecials(t *testing.T) {
	var c compSum
	c.add(1)
	c.add(math.Inf(1))
	if got := c.value(); !math.IsInf(got, 1) {
		t.Fatalf("sum with +Inf = %v", got)
	}
	var d compSum
	d.add(math.Inf(1))
	d.add(math.Inf(-1))
	if got := d.value(); !math.IsNaN(got) {
		t.Fatalf("+Inf + -Inf = %v, want NaN", got)
	}
}

// TestSumAvgAccBitIdentical: the SQL accumulators built on compSum agree bit
// for bit however their input is ordered.
func TestSumAvgAccBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]datum.D, 400)
	for i := range vals {
		vals[i] = datum.NewFloat((rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-6)))
	}
	serialSum, serialAvg := &sumAcc{}, &avgAcc{}
	for _, v := range vals {
		serialSum.add(v)
		serialAvg.add(v)
	}
	for trial := 0; trial < 3; trial++ {
		sum, avg := &sumAcc{}, &avgAcc{}
		for _, i := range rng.Perm(len(vals)) {
			sum.add(vals[i])
			avg.add(vals[i])
		}
		if a, b := serialSum.result().Float(), sum.result().Float(); a != b {
			t.Errorf("SUM differs in shuffle %d: in order=%x shuffled=%x", trial, a, b)
		}
		if a, b := serialAvg.result().Float(), avg.result().Float(); a != b {
			t.Errorf("AVG differs in shuffle %d: in order=%x shuffled=%x", trial, a, b)
		}
	}
}
