package cost

// sumTree is a fixed-shape pairwise summation tree over n float64 leaves,
// padded to the next power of two with zeros. Every internal node is the
// rounded sum of its two children, so the root is a deterministic function
// of the leaf values alone: setting one leaf and re-propagating its
// log-depth root path yields exactly the bits of a full bottom-up rebuild.
// That determinism is what lets an O(dirty·log n) update stay bitwise
// identical to the from-scratch reference evaluation.
type sumTree struct {
	size int       // leaf capacity: smallest power of two >= n
	node []float64 // 1-indexed heap layout; leaves at [size, size+n)
}

func newSumTree(n int) sumTree {
	size := 1
	for size < n {
		size <<= 1
	}
	return sumTree{size: size, node: make([]float64, 2*size)}
}

// rebuild refills all n leaves from the generator and recombines bottom-up.
func (t *sumTree) rebuild(n int, leaf func(i int) float64) {
	for i := 0; i < n; i++ {
		t.node[t.size+i] = leaf(i)
	}
	for k := t.size - 1; k >= 1; k-- {
		t.node[k] = t.node[2*k] + t.node[2*k+1]
	}
}

// set replaces leaf i and re-propagates its root path. Leaf values are
// non-negative products (length × weight), so the bitwise-equality
// shortcut on == never confuses ±0.
func (t *sumTree) set(i int, v float64) {
	k := t.size + i
	if t.node[k] == v {
		return
	}
	t.node[k] = v
	for k >>= 1; k >= 1; k >>= 1 {
		t.node[k] = t.node[2*k] + t.node[2*k+1]
	}
}

// value returns the tree sum.
func (t *sumTree) value() float64 { return t.node[1] }
