package metrics

import (
	"fmt"
	"math/rand"
	"testing"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/par"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// randomMetricsWorkload builds a random PCN large enough to span many
// chunks of the parallel edge walk, with a random placement.
func randomMetricsWorkload(t testing.TB, seed int64, clusters, edges, side int) (*pcn.PCN, *place.Placement) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b snn.GraphBuilder
	b.AddNeurons(clusters, -1)
	for e := 0; e < edges; e++ {
		u, v := rng.Intn(clusters), rng.Intn(clusters)
		if u != v {
			b.AddSynapse(u, v, rng.Float64()*9+0.5)
		}
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Random(res.PCN.NumClusters, hw.MustMesh(side, side), rng)
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN, pl
}

// TestEvaluateWorkersBitIdentical is the determinism contract of
// Options.Workers: every Summary field must be exactly equal — not
// approximately — for Workers in {1, 2, 7, 16}, across every congestion
// mode, including sampled mode with a forced stride.
func TestEvaluateWorkersBitIdentical(t *testing.T) {
	cost := hw.DefaultCostModel()
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"exact", Options{Congestion: CongestionExact}},
		{"auto", Options{}},
		{"sampled", Options{Congestion: CongestionSampled, SampleEdges: 100}},
		{"skip", Options{Congestion: CongestionSkip}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				p, pl := randomMetricsWorkload(t, seed, 300, 1500, 18)
				opts := mode.opts
				opts.Workers = 1
				want := Evaluate(p, pl, cost, opts)
				for _, workers := range []int{2, 7, 16} {
					opts.Workers = workers
					if got := Evaluate(p, pl, cost, opts); got != want {
						t.Fatalf("seed %d workers %d: %+v != sequential %+v", seed, workers, got, want)
					}
				}
			}
		})
	}
}

// TestCongestionGridWorkersBitIdentical asserts cell-exact grid equality
// across worker counts, for exact and strided accumulation.
func TestCongestionGridWorkersBitIdentical(t *testing.T) {
	p, pl := randomMetricsWorkload(t, 4, 300, 1500, 18)
	for _, stride := range []int{1, 7} {
		want := CongestionGrid(p, pl, stride, 1)
		for _, workers := range []int{2, 7, 16} {
			got := CongestionGrid(p, pl, stride, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("stride %d workers %d: grid[%d] = %v != %v", stride, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSampledRescaleStrideConsistency guards against stride drift between
// Evaluate's in-pass sampled-weight accumulation and CongestionGrid's edge
// sampling: recomputing the rescaled grid from the shared sampleStride
// definition must reproduce Evaluate's MaxCongestion exactly. If the two
// edge enumerations ever disagree (different stride, different phase, or a
// different notion of edge index), the scale factor diverges and this
// fails.
func TestSampledRescaleStrideConsistency(t *testing.T) {
	cost := hw.DefaultCostModel()
	p, pl := randomMetricsWorkload(t, 5, 300, 1500, 18)
	opts := Options{Congestion: CongestionSampled, SampleEdges: 100}.withDefaults()
	stride := sampleStride(p, opts)
	if stride <= 1 {
		t.Fatalf("stride = %d; the workload must force sampling", stride)
	}
	got := Evaluate(p, pl, cost, opts)

	// Independent reconstruction, chunked exactly like Evaluate's walk so
	// the float grouping matches: the test pins the *enumeration*, the
	// chunking is shared via par.Chunks.
	n := p.NumClusters
	k := par.Chunks(n, evalChunks)
	var total, sampled float64
	for ci := 0; ci < k; ci++ {
		var pt, ps float64
		for c := ci * n / k; c < (ci+1)*n/k; c++ {
			_, ws := p.OutEdges(c)
			for kk, w := range ws {
				pt += w
				if (p.OutOff[c]+int64(kk))%int64(stride) == 0 {
					ps += w
				}
			}
		}
		total += pt
		sampled += ps
	}
	grid := CongestionGrid(p, pl, stride, 1)
	if sampled > 0 {
		scale := total / sampled
		for i := range grid {
			grid[i] *= scale
		}
	}
	if want := maxOf(grid); got.MaxCongestion != want {
		t.Fatalf("MaxCongestion = %v, reconstruction = %v (stride %d)", got.MaxCongestion, want, stride)
	}
}

// TestEvaluateZeroClustersAllWorkerCounts pins the degenerate walk.
func TestEvaluateZeroClustersAllWorkerCounts(t *testing.T) {
	var b snn.GraphBuilder
	b.AddNeurons(1, -1)
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.New(res.PCN.NumClusters, hw.MustMesh(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 16} {
		s := Evaluate(res.PCN, pl, hw.DefaultCostModel(), Options{Workers: workers})
		if s != (Summary{}) {
			t.Fatalf("workers %d: edgeless summary = %+v, want zero", workers, s)
		}
	}
}

// BenchmarkEvaluateWorkers measures the parallel edge walk's scaling on a
// congestion-heavy workload (exact grids dominate the cost).
func BenchmarkEvaluateWorkers(b *testing.B) {
	p, pl := randomMetricsWorkload(b, 6, 3000, 60000, 55)
	cost := hw.DefaultCostModel()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Evaluate(p, pl, cost, Options{Congestion: CongestionExact, Workers: workers})
			}
		})
	}
}

// TestExpeMemoBitIdentical is the determinism contract of the Expe DP
// memo: every Summary field and every congestion-grid cell must be
// exactly equal with the memo disabled, default-bounded, or squeezed to a
// tiny budget that forces constant eviction-by-refusal.
func TestExpeMemoBitIdentical(t *testing.T) {
	cost := hw.DefaultCostModel()
	for seed := int64(1); seed <= 3; seed++ {
		p, pl := randomMetricsWorkload(t, seed, 300, 1500, 18)
		base := Options{Congestion: CongestionExact, ExpeMemoLimit: -1}
		want := Evaluate(p, pl, cost, base)
		for _, limit := range []int{0, 64, 1 << 20} {
			opts := base
			opts.ExpeMemoLimit = limit
			if got := Evaluate(p, pl, cost, opts); got != want {
				t.Fatalf("seed %d memo limit %d: %+v != memo-off %+v", seed, limit, got, want)
			}
		}
		wantGrid := congestionGrid(p, pl, 1, 1, -1)
		for _, limit := range []int{0, 64} {
			got := congestionGrid(p, pl, 1, 4, limit)
			for i := range wantGrid {
				if got[i] != wantGrid[i] {
					t.Fatalf("seed %d limit %d: grid[%d] = %v != %v", seed, limit, i, got[i], wantGrid[i])
				}
			}
		}
	}
}

// TestExpeMemoBudgetRespected checks the accumulator never retains more
// floats than its budget and never caches a grid above the area cap.
func TestExpeMemoBudgetRespected(t *testing.T) {
	var a expeAccumulator
	a.limit = 100
	grid := make([]float64, 64*64)
	mesh := hw.MustMesh(64, 64)
	// Shapes of area 36 each: only two fit in a budget of 100.
	for i := 0; i < 8; i++ {
		a.accumulate(grid, mesh, geom.Point{}, geom.Point{X: 5 + i%2, Y: 5 + (i/2)%2}, 1)
	}
	if a.memoFloats > a.limit {
		t.Fatalf("memoFloats = %d exceeds budget %d", a.memoFloats, a.limit)
	}
	// Oversized shape must never be cached even under an ample budget.
	bigMesh := hw.MustMesh(80, 80)
	bigGrid := make([]float64, 80*80)
	b := expeAccumulator{limit: 1 << 30}
	b.accumulate(bigGrid, bigMesh, geom.Point{}, geom.Point{X: 79, Y: 79}, 1)
	if len(b.memo) != 0 {
		t.Fatalf("oversized grid was memoized (%d entries)", len(b.memo))
	}
	// Disabled memo caches nothing.
	c := expeAccumulator{limit: -1}
	c.accumulate(grid, mesh, geom.Point{}, geom.Point{X: 3, Y: 3}, 1)
	if len(c.memo) != 0 {
		t.Fatalf("disabled memo cached %d entries", len(c.memo))
	}
}
