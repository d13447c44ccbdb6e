// Package pcn implements the Partitioned Cluster Network of §3.2: the graph
// G_PCN = (V_P, E_P, w_P) whose nodes are clusters of neurons (at most one
// cluster per core) and whose edge weights are inter-cluster communication
// traffic volumes (Eq. 5). It provides the paper's Algorithm 1 partitioner
// for explicit SNN graphs and an analytic expander for layer-spec Nets that
// produces the identical cluster structure at billion-neuron scale.
package pcn

import (
	"fmt"
	"sync"

	"snnmap/internal/par"
)

// PCN is a partitioned cluster network in CSR form. Cluster indices follow
// the partition order (layer-major for layered applications), which is the
// order the topological initial-placement pipeline consumes.
type PCN struct {
	// Name identifies the source application.
	Name string
	// NumClusters is |V_P|.
	NumClusters int
	// Neurons[i] and Synapses[i] are cluster i's configured neuron and
	// (incoming) synapse counts, used for constraint verification.
	Neurons  []int32
	Synapses []int64
	// Layer[i] tags cluster i with its source layer (-1 when unknown);
	// layer-by-layer baselines (TrueNorth) consume it.
	Layer []int32
	// Directed edges in CSR by source cluster. Within one cluster's range
	// targets are strictly increasing (parallel edges are merged by
	// summing weights).
	OutOff []int64
	OutTo  []int32
	OutW   []float64
	// InternalTraffic is the total spike traffic between neurons that were
	// partitioned into the same cluster; it never enters the interconnect
	// and is excluded from E_P.
	InternalTraffic float64

	undir *Undirected // lazily built under undirMu, see Undirected
}

// NumEdges returns |E_P| (directed, merged).
func (p *PCN) NumEdges() int64 {
	if len(p.OutOff) == 0 {
		return 0
	}
	return p.OutOff[p.NumClusters]
}

// TotalWeight returns Σ w_P(e) over all edges, the denominator of Eq. 10.
func (p *PCN) TotalWeight() float64 {
	var total float64
	for _, w := range p.OutW {
		total += w
	}
	return total
}

// TotalNeurons returns the neuron count across all clusters.
func (p *PCN) TotalNeurons() int64 {
	var total int64
	for _, n := range p.Neurons {
		total += int64(n)
	}
	return total
}

// TotalSynapses returns the synapse count across all clusters.
func (p *PCN) TotalSynapses() int64 {
	var total int64
	for _, s := range p.Synapses {
		total += s
	}
	return total
}

// OutEdges returns cluster i's outgoing targets and weights. The slices
// alias the PCN's storage.
func (p *PCN) OutEdges(i int) ([]int32, []float64) {
	lo, hi := p.OutOff[i], p.OutOff[i+1]
	return p.OutTo[lo:hi], p.OutW[lo:hi]
}

// InDegrees returns the number of incoming edges per cluster (used by the
// topological sort's source set).
func (p *PCN) InDegrees() []int32 {
	deg := make([]int32, p.NumClusters)
	for _, to := range p.OutTo {
		deg[to]++
	}
	return deg
}

// NumLayers returns 1 + the maximum layer tag, or 0 when layers are unknown.
func (p *PCN) NumLayers() int {
	max := int32(-1)
	for _, l := range p.Layer {
		if l > max {
			max = l
		}
	}
	return int(max + 1)
}

// Validate checks structural invariants.
func (p *PCN) Validate() error {
	if p.NumClusters < 0 {
		return fmt.Errorf("pcn: negative cluster count")
	}
	if len(p.Neurons) != p.NumClusters || len(p.Synapses) != p.NumClusters || len(p.Layer) != p.NumClusters {
		return fmt.Errorf("pcn: per-cluster slices disagree with NumClusters=%d", p.NumClusters)
	}
	if len(p.OutOff) != p.NumClusters+1 {
		return fmt.Errorf("pcn: OutOff length %d, want %d", len(p.OutOff), p.NumClusters+1)
	}
	if len(p.OutW) != len(p.OutTo) {
		return fmt.Errorf("pcn: OutW length %d, OutTo length %d", len(p.OutW), len(p.OutTo))
	}
	// Offsets must form a valid CSR before anything slices with them.
	if p.OutOff[0] != 0 {
		return fmt.Errorf("pcn: OutOff[0] = %d, want 0", p.OutOff[0])
	}
	if p.OutOff[p.NumClusters] != int64(len(p.OutTo)) {
		return fmt.Errorf("pcn: OutOff[%d] = %d, want %d", p.NumClusters, p.OutOff[p.NumClusters], len(p.OutTo))
	}
	for i := 0; i < p.NumClusters; i++ {
		if p.OutOff[i] < 0 || p.OutOff[i] > p.OutOff[i+1] {
			return fmt.Errorf("pcn: OutOff not monotone at cluster %d", i)
		}
	}
	for i := 0; i < p.NumClusters; i++ {
		tos, ws := p.OutEdges(i)
		for k, to := range tos {
			if to < 0 || int(to) >= p.NumClusters {
				return fmt.Errorf("pcn: cluster %d has out-of-range edge target %d", i, to)
			}
			if int(to) == i {
				return fmt.Errorf("pcn: cluster %d has a self-edge", i)
			}
			if k > 0 && tos[k-1] >= to {
				return fmt.Errorf("pcn: cluster %d targets not strictly increasing", i)
			}
			if ws[k] < 0 {
				return fmt.Errorf("pcn: negative weight on edge %d->%d", i, to)
			}
		}
	}
	return nil
}

// Undirected is the symmetrized view of the PCN: for every unordered
// cluster pair {i, j} the weight is w_P(e_ij) + w_P(e_ji). All placement
// potentials in the paper are symmetric (u(p) = u(−p)), so energy and force
// computations run on this view.
type Undirected struct {
	Off []int64
	To  []int32
	W   []float64
}

// Neighbors returns cluster i's undirected neighbors and combined weights.
func (u *Undirected) Neighbors(i int) ([]int32, []float64) {
	lo, hi := u.Off[i], u.Off[i+1]
	return u.To[lo:hi], u.W[lo:hi]
}

// Degree returns the number of distinct neighbors of cluster i.
func (u *Undirected) Degree(i int) int { return int(u.Off[i+1] - u.Off[i]) }

// undirMu guards every PCN's lazily built undir: concurrent pipelines may
// share one PCN, and each calls Undirected once per FD run.
var undirMu sync.Mutex

// Undirected returns (building on first use) the symmetrized adjacency. It
// is safe for concurrent use.
//
// The build needs no sort (DESIGN.md §10). Scattering the edges in source
// order leaves row r as [in-edges from j<r][out-edges of r][in-edges from
// j>r], each run strictly increasing because a valid PCN has strictly
// increasing targets per source and no self-edges. The two in-runs
// concatenate to one increasing run, so merging it with the out-run sorts
// the row; a reciprocal pair i→j, j→i meets in the merge and becomes one
// entry weighing the sum of its two directed weights.
func (p *PCN) Undirected() *Undirected {
	undirMu.Lock()
	defer undirMu.Unlock()
	if p.undir != nil {
		return p.undir
	}
	n := p.NumClusters
	deg := make([]int64, n+1)
	for i := 0; i < n; i++ {
		tos, _ := p.OutEdges(i)
		deg[i+1] += int64(len(tos))
		for _, to := range tos {
			deg[to+1]++
		}
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	to := make([]int32, deg[n])
	w := make([]float64, deg[n])
	next := make([]int64, n)
	copy(next, deg[:n])
	// outStart[r] is where row r's out-run begins.
	outStart := make([]int64, n)
	for i := 0; i < n; i++ {
		outStart[i] = next[i]
		tos, ws := p.OutEdges(i)
		for k, t := range tos {
			pos := next[i]
			next[i]++
			to[pos] = t
			w[pos] = ws[k]
			pos = next[t]
			next[t]++
			to[pos] = int32(i)
			w[pos] = ws[k]
		}
	}
	// Merge every row and compact it left in one pass; deg becomes the
	// final offsets. Without reciprocal pairs no row shrinks and nothing
	// moves.
	var sc mergeScratch
	var write int64
	for r := 0; r < n; r++ {
		s, e := deg[r], deg[r+1]
		m := outStart[r]
		c := m + p.OutOff[r+1] - p.OutOff[r]
		deg[r] = write
		write = sc.mergeRow(to, w, write, s, m, c, e)
	}
	deg[n] = write
	p.undir = &Undirected{Off: deg, To: to[:write], W: w[:write]}
	return p.undir
}

// mergeScratch is the reusable copy buffer of mergeRow.
type mergeScratch struct {
	to []int32
	w  []float64
}

// mergeRow sorts one scattered row, writes it to to/w starting at dst <= s
// and returns its merged end. The row is to/w[s:e) laid out as an in-run
// [s, m), the out-run [m, c) and a second in-run [c, e), each strictly
// increasing, with every target of the first in-run below every target of
// the second. Equal targets of the in-runs and the out-run merge into one
// entry with their weights summed.
func (sc *mergeScratch) mergeRow(to []int32, w []float64, dst, s, m, c, e int64) int64 {
	if (s == m || m == c || to[m-1] < to[m]) && (c == e || m == c || to[c-1] < to[c]) {
		// Already strictly increasing: only move it.
		if dst != s {
			copy(to[dst:], to[s:e])
			copy(w[dst:], w[s:e])
		}
		return dst + e - s
	}
	// Copy the row aside as [in-runs | out-run] and merge it back.
	n := int(e - s)
	if cap(sc.to) < n {
		sc.to = make([]int32, n)
		sc.w = make([]float64, n)
	}
	inTo := append(append(sc.to[:0], to[s:m]...), to[c:e]...)
	inW := append(append(sc.w[:0], w[s:m]...), w[c:e]...)
	outTo, outW := sc.to[len(inTo):n], sc.w[len(inW):n]
	copy(outTo, to[m:c])
	copy(outW, w[m:c])
	wr, i, j := dst, 0, 0
	for i < len(inTo) && j < len(outTo) {
		switch a, b := inTo[i], outTo[j]; {
		case a < b:
			to[wr], w[wr] = a, inW[i]
			i++
		case a > b:
			to[wr], w[wr] = b, outW[j]
			j++
		default:
			to[wr], w[wr] = a, inW[i]+outW[j]
			i++
			j++
		}
		wr++
	}
	// At most one of the two runs has a tail left.
	copy(w[wr:], inW[i:])
	wr += int64(copy(to[wr:], inTo[i:]))
	copy(w[wr:], outW[j:])
	wr += int64(copy(to[wr:], outTo[j:]))
	return wr
}

// sortEdges sorts parallel target/weight slices by target without
// allocating: an interface-based sort.Sort here costs one heap allocation
// per cluster, which dominated Partition's allocation profile (most
// clusters have short edge lists, so insertion sort also wins on time).
func sortEdges(to []int32, w []float64) {
	for len(to) > 16 {
		// Median-of-three quicksort on the larger ranges; recurse into the
		// smaller half, loop on the larger to bound stack depth.
		mid := len(to) / 2
		if to[mid] < to[0] {
			swapEdge(to, w, 0, mid)
		}
		if to[len(to)-1] < to[0] {
			swapEdge(to, w, 0, len(to)-1)
		}
		if to[len(to)-1] < to[mid] {
			swapEdge(to, w, mid, len(to)-1)
		}
		pivot := to[mid]
		i, j := 0, len(to)-1
		for i <= j {
			for to[i] < pivot {
				i++
			}
			for to[j] > pivot {
				j--
			}
			if i <= j {
				swapEdge(to, w, i, j)
				i++
				j--
			}
		}
		if j+1 < len(to)-i {
			sortEdges(to[:j+1], w[:j+1])
			to, w = to[i:], w[i:]
		} else {
			sortEdges(to[i:], w[i:])
			to, w = to[:j+1], w[:j+1]
		}
	}
	for i := 1; i < len(to); i++ {
		t, x := to[i], w[i]
		j := i - 1
		for j >= 0 && to[j] > t {
			to[j+1], w[j+1] = to[j], w[j]
			j--
		}
		to[j+1], w[j+1] = t, x
	}
}

func swapEdge(to []int32, w []float64, i, j int) {
	to[i], to[j] = to[j], to[i]
	w[i], w[j] = w[j], w[i]
}

// buildCSR converts an edge list into the PCN's merged CSR fields.
// It sorts edges by (from, to) and merges duplicates by summing weights.
func buildCSR(p *PCN, from, to []int32, w []float64) {
	n := p.NumClusters
	counts := make([]int64, n+1)
	for _, f := range from {
		counts[f+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	bucketTo := make([]int32, len(to))
	bucketW := make([]float64, len(w))
	next := make([]int64, n)
	copy(next, counts[:n])
	for k, f := range from {
		pos := next[f]
		next[f]++
		bucketTo[pos] = to[k]
		bucketW[pos] = w[k]
	}
	finalizeCSR(p, counts, bucketTo, bucketW, 1)
}

// finalizeCSR turns source-bucketed edge arrays — cluster i's edges occupy
// [counts[i], counts[i+1]) of to/w, in any order — into the PCN's merged CSR:
// each bucket is sorted by target and duplicates are merged in place by
// summing weights. The buckets are disjoint slices, so the sort phase fans
// out over workers goroutines (1 = inline); the result is bit-identical at
// any worker count. The compaction pass then walks buckets in cluster order.
// The streaming expander calls this directly with exact-sized arrays,
// avoiding buildCSR's edge-list and double-buffer copies.
func finalizeCSR(p *PCN, counts []int64, to []int32, w []float64, workers int) {
	n := p.NumClusters
	par.Ranges(workers, n, par.Chunks(n, matchChunks), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sortEdges(to[counts[i]:counts[i+1]], w[counts[i]:counts[i+1]])
		}
	})
	p.OutOff = make([]int64, n+1)
	var write int64
	for i := 0; i < n; i++ {
		p.OutOff[i] = write
		lo, hi := counts[i], counts[i+1]
		for k := lo; k < hi; k++ {
			if write > p.OutOff[i] && to[write-1] == to[k] {
				w[write-1] += w[k]
				continue
			}
			to[write] = to[k]
			w[write] = w[k]
			write++
		}
	}
	p.OutOff[n] = write
	p.OutTo = to[:write]
	p.OutW = w[:write]
}
