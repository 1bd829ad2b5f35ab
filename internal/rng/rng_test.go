package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v <= 0 || v >= 1 {
			t.Fatalf("Float64 out of (0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestRange(t *testing.T) {
	r := New(3)
	lo, hi := -2.5, 7.25
	for i := 0; i < 10000; i++ {
		v := r.Range(lo, hi)
		if v < lo || v >= hi {
			t.Fatalf("Range out of [%v,%v): %v", lo, hi, v)
		}
	}
}

func TestRangeProperty(t *testing.T) {
	f := func(seed uint64, a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi-lo < 1e-9 || hi-lo > 1e12 {
			return true
		}
		v := New(seed).Range(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntn(t *testing.T) {
	r := New(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(123)
	var sum, sumSq float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance %v too far from 1", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := New(5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Exp(30)
	}
	if mean := sum / n; math.Abs(mean-30) > 0.5 {
		t.Fatalf("Exp(30) mean %v too far from 30", mean)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	if v := s.Float64(); v <= 0 || v >= 1 {
		t.Fatalf("zero-value Source produced %v", v)
	}
}
