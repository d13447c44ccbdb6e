package pcn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"snnmap/internal/snn"
)

// undirectedOracle is the scatter-then-sort symmetrization the merge-based
// Undirected replaced: scatter every edge into both endpoint rows, sort each
// row by target, and fold equal targets by summing their weights.
func undirectedOracle(p *PCN) *Undirected {
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
	next := slices.Clone(deg[:n])
	for i := 0; i < n; i++ {
		tos, ws := p.OutEdges(i)
		for k, t := range tos {
			to[next[i]], w[next[i]] = t, ws[k]
			next[i]++
			to[next[t]], w[next[t]] = int32(i), ws[k]
			next[t]++
		}
	}
	off := make([]int64, n+1)
	var write int64
	for i := 0; i < n; i++ {
		off[i] = write
		lo, hi := deg[i], deg[i+1]
		sortEdges(to[lo:hi], w[lo:hi])
		for k := lo; k < hi; k++ {
			if write > off[i] && to[write-1] == to[k] {
				w[write-1] += w[k]
				continue
			}
			to[write], w[write] = to[k], w[k]
			write++
		}
	}
	off[n] = write
	return &Undirected{Off: off, To: to[:write], W: w[:write]}
}

// checkUndirectedMatchesOracle builds p's adjacency afresh and compares
// Off, To and W bit for bit against the oracle.
func checkUndirectedMatchesOracle(t *testing.T, name string, p *PCN) {
	t.Helper()
	want := undirectedOracle(p)
	p.undir = nil
	got := p.Undirected()
	if !slices.Equal(got.Off, want.Off) || !slices.Equal(got.To, want.To) {
		t.Fatalf("%s: adjacency structure differs from the sort oracle", name)
	}
	if len(got.W) != len(want.W) {
		t.Fatalf("%s: %d weights, oracle %d", name, len(got.W), len(want.W))
	}
	for k := range got.W {
		if math.Float64bits(got.W[k]) != math.Float64bits(want.W[k]) {
			t.Fatalf("%s: W[%d] = %v, oracle %v", name, k, got.W[k], want.W[k])
		}
	}
}

// randomValidPCN draws a valid PCN whose rows mix every shape the merge
// handles: isolated clusters, degree-0 rows, reciprocal i→j/j→i pairs,
// in-edges on both sides of the row's own index, and rows long enough to
// take the oracle's quicksort path.
func randomValidPCN(t *testing.T, rng *rand.Rand) *PCN {
	t.Helper()
	n := 1 + rng.Intn(120)
	p := &PCN{
		NumClusters: n,
		Neurons:     make([]int32, n),
		Synapses:    make([]int64, n),
		Layer:       make([]int32, n),
		OutOff:      make([]int64, n+1),
	}
	isolated := make([]bool, n)
	for i := range isolated {
		isolated[i] = rng.Intn(6) == 0
	}
	reciprocal := rng.Float64()
	maxOut := 1 + rng.Intn(40)
	edges := make([]map[int32]float64, n)
	for i := range edges {
		edges[i] = map[int32]float64{}
	}
	for i := 0; i < n; i++ {
		if isolated[i] || rng.Intn(4) == 0 {
			continue // degree-0 out-row
		}
		for k := rng.Intn(maxOut); k > 0; k-- {
			j := rng.Intn(n)
			if j == i || isolated[j] {
				continue
			}
			edges[i][int32(j)] = rng.ExpFloat64() * 2.3
			if rng.Float64() < reciprocal {
				edges[j][int32(i)] = rng.ExpFloat64() * 0.7
			}
		}
	}
	for i := 0; i < n; i++ {
		tos := make([]int32, 0, len(edges[i]))
		for j := range edges[i] {
			tos = append(tos, j)
		}
		slices.Sort(tos)
		for _, j := range tos {
			p.OutTo = append(p.OutTo, j)
			p.OutW = append(p.OutW, edges[i][j])
		}
		p.OutOff[i+1] = int64(len(p.OutTo))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestUndirectedMatchesSortOracle checks the merge-based build against the
// scatter-and-sort oracle on random valid PCNs.
func TestUndirectedMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		checkUndirectedMatchesOracle(t, "random", randomValidPCN(t, rng))
	}
	checkUndirectedMatchesOracle(t, "empty", &PCN{OutOff: []int64{0}})
}

// TestUndirectedZooMatchesSortOracle runs the same comparison on the
// expanded tier-1 zoo nets, which are feedforward (every row already in
// order), and on a recurrent reservoir, whose rows take the merge.
func TestUndirectedZooMatchesSortOracle(t *testing.T) {
	lsm, err := snn.Reservoir("lsm", snn.ReservoirConfig{Inputs: 128, ReservoirNeurons: 1000, Readouts: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*snn.Net{
		snn.DNN65K(), snn.CNN65K(), snn.LeNetMNIST(), snn.LeNetImageNet(),
		snn.AlexNet(), snn.MobileNet(), lsm,
	} {
		p, err := Expand(n, DefaultPartition())
		if err != nil {
			t.Fatal(err)
		}
		checkUndirectedMatchesOracle(t, n.Name, p)
	}
}
