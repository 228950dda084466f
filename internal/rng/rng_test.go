package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different streams produced %d/100 identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children produced %d/100 identical outputs", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(5).Split()
	b := New(5).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split is not a pure function of parent state (step %d)", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(23)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.06 {
			t.Fatalf("bucket %d count %d deviates from expected %v", i, c, want)
		}
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

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	prop := func(seed uint64, raw []byte) bool {
		r := New(seed)
		vals := make([]int, len(raw))
		counts := map[int]int{}
		for i, b := range raw {
			vals[i] = int(b)
			counts[int(b)]++
		}
		r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		for _, v := range vals {
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(41)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bernoulli(%v) frequency %v", p, got)
		}
	}
}

func TestGeometric(t *testing.T) {
	r := New(43)
	if g := r.Geometric(1.0, 100); g != 0 {
		t.Fatalf("Geometric(1.0) = %d, want 0", g)
	}
	const n = 50000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(0.5, 1000)
	}
	mean := float64(sum) / n
	// Mean of Geometric(0.5) (failures before success) is (1-p)/p = 1.
	if math.Abs(mean-1.0) > 0.05 {
		t.Fatalf("Geometric(0.5) mean %v, want ~1.0", mean)
	}
}

func TestGeometricCap(t *testing.T) {
	r := New(47)
	for i := 0; i < 1000; i++ {
		if g := r.Geometric(0.01, 5); g > 5 {
			t.Fatalf("Geometric exceeded cap: %d", g)
		}
	}
}

func TestPickWeighted(t *testing.T) {
	r := New(53)
	w := []float64{1, 3, 6}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick(w)]++
	}
	for i, want := range []float64{0.1, 0.3, 0.6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("Pick index %d frequency %v, want ~%v", i, got, want)
		}
	}
}

func TestPickPanicsOnZeroSum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick with zero weights did not panic")
		}
	}()
	New(1).Pick([]float64{0, 0})
}

func TestUint32FullRangeCoverage(t *testing.T) {
	// Sanity check that high and low bits both vary.
	r := New(61)
	var orAll, andAll uint32 = 0, 0xffffffff
	for i := 0; i < 10000; i++ {
		v := r.Uint32()
		orAll |= v
		andAll &= v
	}
	if orAll != 0xffffffff {
		t.Fatalf("some output bits never set: OR=%08x", orAll)
	}
	if andAll != 0 {
		t.Fatalf("some output bits always set: AND=%08x", andAll)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
