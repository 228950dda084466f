package wire

// Rectilinear minimum spanning tree (RMST) estimation. The RMST is a
// tighter routed-length estimate than the single-trunk tree for high-fanout
// nets (it is within 1.5x of the optimal rectilinear Steiner minimal tree)
// at O(k²) cost for k pins. It is a reporting diagnostic (LengthsBy); the
// engine measures Steiner only.

// rmstLength computes the total Manhattan length of a minimum spanning
// tree over the pins (xs, ys), using Prim's algorithm with the given
// scratch buffers.
func rmstLength(xs, ys []float64, distBuf *[]float64, inBuf *[]bool) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	if n == 2 {
		return abs(xs[0]-xs[1]) + abs(ys[0]-ys[1])
	}
	if cap(*distBuf) < n {
		*distBuf = make([]float64, n)
	}
	if cap(*inBuf) < n {
		*inBuf = make([]bool, n)
	}
	dist, inTree := (*distBuf)[:n], (*inBuf)[:n]
	for i := range inTree {
		inTree[i] = false
		dist[i] = 1e308
	}

	total := 0.0
	cur := 0
	inTree[0] = true
	for added := 1; added < n; added++ {
		// Relax distances against the vertex just added, then pick the
		// closest fringe vertex.
		best, bestD := -1, 1e308
		for i := 0; i < n; i++ {
			if inTree[i] {
				continue
			}
			if d := abs(xs[i]-xs[cur]) + abs(ys[i]-ys[cur]); d < dist[i] {
				dist[i] = d
			}
			if dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		inTree[best] = true
		total += bestD
		cur = best
	}
	return total
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
