package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"snnmap/internal/baseline"
	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/noc"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// initial selects the placement FD fine-tuning starts from.
type initial int

const (
	// initHSC is the paper's Hilbert space-filling-curve placement (§4.4).
	initHSC initial = iota
	// initRandom is the seeded Random baseline every paper figure is
	// normalized to; it is scored before FD runs.
	initRandom
)

// workload is one benchmark input: a Table 3 network, the mesh it is mapped
// onto, the initial placement, and whether the result is replayed through
// the NoC simulator.
type workload struct {
	name     string
	net      func() *snn.Net
	side     int // the target mesh is side × side cores
	initial  initial
	simulate bool
}

// workloads are the benchmark's fixed workloads. Each is dominated by a
// different layer; README.md gives the measured shares.
var workloads = []workload{
	{name: "hsc_fd_dnn268m", net: snn.DNN268M, side: 256, initial: initHSC},
	{name: "fd_random_dnn16m", net: snn.DNN16M, side: 64, initial: initRandom},
	{name: "sim_mobilenet", net: snn.MobileNet, side: 36, initial: initHSC, simulate: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are what a user hands the mapper: the network and the target mesh.
type inputs struct {
	net  *snn.Net
	mesh hw.Mesh
}

// setup builds the workload's inputs. Every iteration builds its own, so no
// state carries over from an earlier iteration.
func (w workload) setup() (inputs, error) {
	mesh, err := hw.NewMesh(w.side, w.side)
	if err != nil {
		return inputs{}, err
	}
	n := w.net()
	if err := n.Validate(); err != nil {
		return inputs{}, err
	}
	return inputs{net: n, mesh: mesh}, nil
}

// runConfig is shared by every iteration of one run.
type runConfig struct {
	workers int
	// randomSeed drives the Random baseline placement.
	randomSeed int64
	// obs, when non-nil, receives the benchmark's layer spans and the
	// program's own spans into sink; the iteration is then a traced one.
	obs  *obs.Observer
	sink *memSink
	// corrupt, when non-nil, is applied to the final placement before it is
	// scored. The self-test uses it to prove that a broken output is
	// counted as a check failure instead of crashing the run.
	corrupt func(*place.Placement)
}

// stage is one timed call into a layer.
type stage struct {
	wall   time.Duration
	allocs uint64
	peak   uint64
}

// iteration is everything one pass over the pipeline measured and produced.
type iteration struct {
	setup, mapT, evaluate, simulate time.Duration

	expand, place, finetune, simStage stage
	// evalAllocs sums the allocations of every evaluate call.
	evalAllocs uint64

	// peakHeap is the heap high-water mark over the iteration's stages.
	peakHeap uint64

	clusters int
	edges    int64
	fd       mapping.FDStats
	summary  metrics.Summary
	sim      noc.Result
	// placementHash fingerprints the final placement.
	placementHash uint64

	// fdSweeps is the summed duration of the program's fd.sweep spans
	// (traced iterations only).
	fdSweeps time.Duration
	// edgewalk, congestion and bboxWork are the traced-only split of the
	// evaluate calls, summed over every evaluated placement.
	edgewalk, congestion time.Duration
	bboxWork             int64

	// failures lists every check that did not hold.
	failures []string
}

// pipeline returns the iteration's end-to-end time: what a user waits for.
func (it *iteration) pipeline() time.Duration {
	return it.setup + it.mapT + it.evaluate + it.simulate
}

// scored is one placement the pipeline evaluated.
type scored struct {
	pl      *place.Placement
	summary metrics.Summary
}

// runIteration maps the workload once: setup, expand, initial placement,
// FD fine-tuning to convergence, evaluation and (if the workload asks for
// it) the NoC replay. Every stage is timed from outside by the calls into
// the layer's public functions. A panic in the program is reported as a
// failure of the iteration.
//
// gridCheck adds the congestion grid check, one more CongestionGrid call on
// the final placement; split (traced runs only) times the edge walk and the
// congestion grid of every scored placement separately, and implies the
// grid check.
func runIteration(w workload, cfg runConfig, sampler *heapSampler, gridCheck, split bool) (it iteration) {
	defer func() {
		if r := recover(); r != nil {
			it.failures = append(it.failures, fmt.Sprintf("panic: %v", r))
		}
	}()
	o := cfg.obs
	root := o.Span("bench.iteration")
	defer root.End()

	// Collect the previous iteration's garbage first, so set-up does not pay
	// for sweeping it.
	runtime.GC()
	t0 := time.Now()
	sp := o.Span("bench.setup")
	in, err := w.setup()
	sp.End()
	it.setup = time.Since(t0)
	if err != nil {
		it.failures = append(it.failures, "setup: "+err.Error())
		return it
	}

	timed := func(name string, fn func() error) (stage, error) {
		st, err := measure(sampler, func() error {
			sp := o.Span(name)
			defer sp.End()
			return fn()
		})
		if st.peak > it.peakHeap {
			it.peakHeap = st.peak
		}
		return st, err
	}
	cost := hw.DefaultCostModel()

	var p *pcn.PCN
	it.expand, err = timed("bench.expand", func() error {
		pc := pcn.DefaultPartition()
		pc.Workers = cfg.workers
		pc.Obs = o
		var err error
		p, err = pcn.Expand(in.net, pc)
		return err
	})
	if err == nil && p.NumClusters > in.mesh.Cores() {
		err = fmt.Errorf("%d clusters do not fit the %v mesh", p.NumClusters, in.mesh)
	}
	if err != nil {
		it.failures = append(it.failures, "expand: "+err.Error())
		return it
	}
	it.clusters, it.edges = p.NumClusters, p.NumEdges()

	var pl *place.Placement
	it.place, err = timed("bench.place", func() error {
		var err error
		if w.initial == initRandom {
			pl, _, err = baseline.Random(p, in.mesh, baseline.Options{Seed: cfg.randomSeed})
		} else {
			pl, err = mapping.InitialPlacementWorkers(p, in.mesh, curve.Hilbert{}, nil, hw.DefaultConstraints(), cfg.workers)
		}
		return err
	})
	if err != nil {
		it.failures = append(it.failures, "place: "+err.Error())
		return it
	}

	var evaluated []scored
	evaluate := func(pl *place.Placement) metrics.Summary {
		var s metrics.Summary
		st, _ := timed("bench.evaluate", func() error {
			s = metrics.Evaluate(p, pl, cost, metrics.Options{Workers: cfg.workers, Obs: o})
			return nil
		})
		it.evalAllocs += st.allocs
		it.evaluate += st.wall
		return s
	}
	if w.initial == initRandom {
		// The baseline is scored before FD mutates the placement in place.
		evaluated = append(evaluated, scored{pl: pl.Clone(), summary: evaluate(pl)})
	}

	sweeps0 := cfg.sink.len()
	it.finetune, err = timed("bench.finetune", func() error {
		var err error
		it.fd, err = mapping.Finetune(p, pl, mapping.FDConfig{
			Potential: mapping.L2Sq{},
			Workers:   cfg.workers,
			Obs:       o,
		})
		return err
	})
	it.fdSweeps = spanTotal(cfg.sink.since(sweeps0), "fd.sweep")
	if err != nil {
		it.failures = append(it.failures, "finetune: "+err.Error())
		return it
	}
	it.mapT = it.expand.wall + it.place.wall + it.finetune.wall

	if cfg.corrupt != nil {
		cfg.corrupt(pl)
	}
	it.summary = evaluate(pl)
	evaluated = append(evaluated, scored{pl: pl, summary: it.summary})
	it.placementHash = hashPlacement(pl)

	if w.simulate {
		it.simStage, err = timed("bench.simulate", func() error {
			var err error
			it.sim, err = noc.Simulate(p, pl, noc.Config{
				SpikesPerUnit: spikesPerUnit(p),
				Shards:        noc.ClampShards(cfg.workers, in.mesh.Rows),
				Obs:           o,
			})
			return err
		})
		it.simulate = it.simStage.wall
		if err != nil {
			it.failures = append(it.failures, "simulate: "+err.Error())
			return it
		}
	}

	// Checks run after the pipeline, outside every timed stage.
	it.failures = append(it.failures, checkFD(it.fd)...)
	for _, s := range evaluated {
		it.failures = append(it.failures, checkPlacement(p, s.pl, s.summary, cost)...)
	}
	if w.simulate {
		it.failures = append(it.failures, checkSim(p, it.sim, spikesPerUnit(p))...)
	}
	switch {
	case split:
		// The traced run splits evaluate into its edge walk and its
		// congestion grid with two more public calls per scored placement.
		// The final placement's grid also feeds the grid check.
		for i, s := range evaluated {
			sp := o.Span("bench.edgewalk")
			t := time.Now()
			metrics.Evaluate(p, s.pl, cost, metrics.Options{Congestion: metrics.CongestionSkip, Workers: cfg.workers})
			it.edgewalk += time.Since(t)
			sp.End()
			sp = o.Span("bench.congestion")
			t = time.Now()
			grid := metrics.CongestionGrid(p, s.pl, 1, cfg.workers)
			it.congestion += time.Since(t)
			sp.End()
			it.bboxWork += recompute(p, s.pl, cost).bboxWork
			if i == len(evaluated)-1 {
				it.failures = append(it.failures, checkGrid(grid, s.summary, s.pl.Mesh)...)
			}
		}
	case gridCheck:
		grid := metrics.CongestionGrid(p, pl, 1, cfg.workers)
		it.failures = append(it.failures, checkGrid(grid, it.summary, pl.Mesh)...)
	}
	return it
}

// spikesPerUnit is the snnmap -sim spike budget: about a million spikes in
// total, or one spike per unit of weight on lighter networks.
func spikesPerUnit(p *pcn.PCN) float64 {
	if tw := p.TotalWeight(); tw > 1_000_000 {
		return 1_000_000 / tw
	}
	return 1
}

// hashPlacement fingerprints a placement by its cluster → core table.
func hashPlacement(pl *place.Placement) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, idx := range pl.PosOf {
		b[0], b[1], b[2], b[3] = byte(idx), byte(idx>>8), byte(idx>>16), byte(idx>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}
