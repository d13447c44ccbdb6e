package mapping

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// opaquePotential hides the concrete potential type from newFDEngine's
// kernel switch, forcing the generic Eval loop: wrapping L2Sq turns the
// engine into the oracle of its own exact-integer u_c kernel.
type opaquePotential struct{ Potential }

// fractionalPCN is a random cluster graph with non-integer weights, so force
// sums round and any change of product or summation order shows in the
// bits. Random endpoints give reciprocal pairs and degree-0 clusters.
func fractionalPCN(t *testing.T, seed int64, n, e int) *pcn.PCN {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b snn.GraphBuilder
	b.AddNeurons(n, -1)
	for i := 0; i < e; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddSynapse(u, v, rng.ExpFloat64()*3.7)
		}
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN
}

// placeAmong places n clusters on a random subset of the allowed cells.
func placeAmong(t *testing.T, n int, mesh hw.Mesh, allowed []int32, seed int64) *place.Placement {
	t.Helper()
	pl, err := place.New(n, mesh)
	if err != nil {
		t.Fatal(err)
	}
	cells := slices.Clone(allowed)
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	for c := 0; c < n; c++ {
		pl.Assign(c, cells[c])
	}
	return pl
}

// occupiedEdges reports whether some cluster sits on the top row, the last
// row `bottom`, the left column and the right column.
func occupiedEdges(pl *place.Placement, bottom int) bool {
	var top, bot, left, right bool
	for c := range pl.PosOf {
		pt := pl.Of(c)
		top = top || pt.X == 0
		bot = bot || pt.X == bottom
		left = left || pt.Y == 0
		right = right || pt.Y == pl.Mesh.Cols-1
	}
	return top && bot && left && right
}

// sameBits compares float slices bit for bit (so +0 and −0 differ).
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestL2SqKernelMatchesEvalOracle runs the exact-integer u_c engine and the
// generic Eval engine side by side and requires the force array, the mutual
// weight cache, E_s, the queue and the placement to be bit-identical after
// the build and after every sweep, on pristine, defective and spare-row
// meshes with clusters on all four mesh edges.
func TestL2SqKernelMatchesEvalOracle(t *testing.T) {
	mesh := hw.MustMesh(19, 23)
	p := fractionalPCN(t, 5, 380, 2600)
	all := make([]int32, mesh.Cores())
	for i := range all {
		all[i] = int32(i)
	}

	defects := hw.NewDefectMap(mesh)
	var healthy []int32
	for idx := range all {
		if idx%17 == 3 {
			defects.MarkDead(idx)
			continue
		}
		healthy = append(healthy, int32(idx))
	}
	for _, idx := range []int{24, 100, 205, 330} {
		if err := defects.Degrade(idx, 0.4); err != nil {
			t.Fatal(err)
		}
	}

	spare := hw.Constraints{SpareRows: 2}
	usable := spare.UsableRows(mesh)

	cases := []struct {
		name    string
		cfg     FDConfig
		allowed []int32
		bottom  int
	}{
		{"pristine", FDConfig{}, all, mesh.Rows - 1},
		{"defective", FDConfig{Defects: defects, Constraints: hw.Constraints{NeuronsPerCore: 1}}, healthy, mesh.Rows - 1},
		{"spare-rows", FDConfig{Constraints: spare}, all[:usable*mesh.Cols], usable - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			init := placeAmong(t, p.NumClusters, mesh, tc.allowed, 11)
			if !occupiedEdges(init, tc.bottom) {
				t.Fatal("initial placement leaves a mesh edge empty")
			}
			newEngine := func(pot Potential) *fdEngine {
				cfg := tc.cfg
				cfg.Potential = pot
				return newFDEngine(p, init.Clone(), cfg.withDefaults())
			}
			fast, oracle := newEngine(L2Sq{}), newEngine(opaquePotential{L2Sq{}})
			if !fast.l2sq || oracle.l2sq {
				t.Fatal("kernel switch did not pick the u_c kernel for L2Sq only")
			}
			compare := func(stage string, qf, qo []pairTension) {
				t.Helper()
				if i := sameBits(fast.force, oracle.force); i >= 0 {
					t.Fatalf("%s: force[%d] = %v, oracle %v", stage, i, fast.force[i], oracle.force[i])
				}
				if i := sameBits(fast.mutw, oracle.mutw); i >= 0 {
					t.Fatalf("%s: mutw[%d] = %v, oracle %v", stage, i, fast.mutw[i], oracle.mutw[i])
				}
				ef, eo := fast.systemEnergyParallel(1), oracle.systemEnergyParallel(1)
				if math.Float64bits(ef) != math.Float64bits(eo) {
					t.Fatalf("%s: E_s = %v, oracle %v", stage, ef, eo)
				}
				if !slices.Equal(qf, qo) {
					t.Fatalf("%s: queues differ", stage)
				}
				if !slices.Equal(fast.pl.PosOf, oracle.pl.PosOf) {
					t.Fatalf("%s: placements differ", stage)
				}
			}

			fast.buildAllForces(2)
			oracle.buildAllForces(1)
			qf, qo := fast.initialQueue(2), oracle.initialQueue(1)
			compare("build", qf, qo)
			minGain := tc.cfg.effectiveMinGain(fast.systemEnergyParallel(1))
			var sf, so FDStats
			sweeps := 0
			for ; len(qf) > 0 && sweeps < 500; sweeps++ {
				for _, s := range []struct {
					e     *fdEngine
					q     *[]pairTension
					stats *FDStats
				}{{fast, &qf, &sf}, {oracle, &qo, &so}} {
					s.e.beginEpoch()
					s.e.applyBatch(context.Background(), (*s.q)[:swapLimit(0.3, len(*s.q))], minGain, s.stats)
					*s.q = s.e.nextQueue(*s.q, minGain, &s.stats.TensionChecks)
				}
				compare("sweep", qf, qo)
				if sf != so {
					t.Fatalf("sweep %d: stats %+v, oracle %+v", sweeps, sf, so)
				}
			}
			if len(qf) > 0 || sf.Swaps == 0 {
				t.Fatalf("after %d sweeps: %d queued, %d swaps; want a converged run that moved", sweeps, len(qf), sf.Swaps)
			}
		})
	}
}

// TestL2SqFinetuneMatchesEvalOracle checks the same contract end to end
// through Finetune: placement and FDStats are identical with and without
// the u_c kernel at several worker counts.
func TestL2SqFinetuneMatchesEvalOracle(t *testing.T) {
	mesh := hw.MustMesh(70, 70)
	p := fractionalPCN(t, 8, 4700, 26000)
	init, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(pot Potential, workers int) ([]int32, FDStats) {
		pl := init.Clone()
		stats, err := Finetune(p, pl, FDConfig{Potential: pot, Workers: workers, MaxIterations: 12})
		if err != nil {
			t.Fatal(err)
		}
		stats.Elapsed = 0
		return pl.PosOf, stats
	}
	wantPos, wantStats := run(opaquePotential{L2Sq{}}, 1)
	for _, workers := range []int{1, 2, 7} {
		pos, stats := run(L2Sq{}, workers)
		if stats != wantStats {
			t.Errorf("workers=%d: stats %+v, oracle %+v", workers, stats, wantStats)
		}
		if !slices.Equal(pos, wantPos) {
			t.Errorf("workers=%d: placement differs from the Eval oracle", workers)
		}
	}
}
