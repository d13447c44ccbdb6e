// Command perfbench is the repository's benchmark. It maps one workload
// repeatedly for a fixed time from a single process, times every call into
// the mapper's layers from outside, checks every output against its own
// recomputation, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload hsc_fd_dnn268m --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run, whose events are written as a
// Chrome trace under --trace-dir. README.md documents the workloads and
// every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"snnmap/internal/obs"
)

// Set-up is timed in setupRounds rounds of setupBuilds input builds each.
// One build of the smallest net takes microseconds, so a round's mean is
// what is steady. Each round starts from a collected heap and runs with the
// collector off, so a collection that happens to start inside a round does
// not land on it; the median over rounds drops a round another process
// interrupted.
const (
	setupRounds = 31
	setupBuilds = 51
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: hsc_fd_dnn268m, fd_random_dnn16m or sim_mobilenet")
	seed := fs.Int64("seed", 1, "workload seed; every workload is deterministic, so it changes no input (README.md says why)")
	randomSeed := fs.Int64("random-seed", 1, "seed of the Random baseline placement of fd_random_dnn16m")
	seconds := fs.Int("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics, 0 for end-to-end metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its Chrome trace to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		fs.Usage()
		return 2
	}

	// Workers and NoC shards equal the CPU count, so the parallel paths are
	// the ones measured.
	cfg := runConfig{workers: runtime.NumCPU(), randomSeed: *randomSeed}
	r := measureRun(w, cfg, time.Duration(*seconds)*time.Second, *trace == 1)
	if *trace == 1 {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := writeTrace(path, r.events); err != nil {
			last := &r.traced[len(r.traced)-1]
			last.failures = append(last.failures, err.Error())
		} else {
			fmt.Fprintf(stdout, "trace: %s\n", path)
		}
	}

	var ms []metric
	if *trace == 1 {
		ms = perLayer(w, r)
	} else {
		ms = endToEnd(w, r)
	}
	res := result{Attempted: len(r.all()), Metrics: map[string]value{}}
	for _, it := range r.all() {
		if len(it.failures) > 0 {
			res.Failed++
			for _, f := range it.failures {
				fmt.Fprintln(stderr, "check failed:", f)
			}
		}
	}
	res.Correct = res.Failed == 0

	fmt.Fprintf(stdout, "workload %s, seed %d, %d workers, %d warm-up + %d untraced + %d traced iterations\n",
		w.name, *seed, cfg.workers, len(r.warmup), len(r.untraced), len(r.traced))
	for _, m := range ms {
		if m.show {
			fmt.Fprintf(stdout, "  %-30s %-16.6g %s\n", m.name, m.value, m.unit)
		}
		if !m.hidden {
			res.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
		}
	}
	fmt.Fprintf(stdout, "  %-30s %-16d of %d iterations\n", "check_failures", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the final output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one reported number. hidden ones are printed for people only;
// the result line carries the rest.
type metric struct {
	name   string
	value  float64
	unit   string
	show   bool
	hidden bool
}

// runResult is everything one run measured.
type runResult struct {
	setups   []time.Duration
	warmup   []iteration
	untraced []iteration
	traced   []iteration
	events   []obs.Event
}

// all returns every iteration of the run.
func (r *runResult) all() []*iteration {
	var its []*iteration
	for i := range r.warmup {
		its = append(its, &r.warmup[i])
	}
	for i := range r.untraced {
		its = append(its, &r.untraced[i])
	}
	for i := range r.traced {
		its = append(its, &r.traced[i])
	}
	return its
}

// measureRun times the set-up, then maps the workload until the budget is
// spent, at least once. A traced run alternates untraced and traced
// iterations, so the tracing overhead is measured under the same
// conditions, and runs at least one of each.
func measureRun(w workload, cfg runConfig, budget time.Duration, trace bool) runResult {
	var r runResult
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		t := time.Now()
		for j := 0; j < setupBuilds; j++ {
			if _, err := w.setup(); err != nil {
				break // the iterations report the error
			}
		}
		r.setups = append(r.setups, time.Since(t)/setupBuilds)
		debug.SetGCPercent(gc)
	}
	runtime.GC()

	sink := &memSink{}
	traced := cfg
	traced.sink, traced.obs = sink, obs.New(obs.Config{Sink: sink})
	sampler := newHeapSampler()
	defer sampler.stop()
	start := time.Now()
	first := runIteration(w, cfg, sampler, true, false)
	if trace {
		// The first iteration grows the heap from the OS; a traced run
		// checks it but leaves it out of the medians, so that cost does not
		// land on one side of the overhead ratio only.
		r.warmup = append(r.warmup, first)
		for i := 0; time.Since(start) < budget || len(r.untraced) == 0; i++ {
			if i%2 == 0 {
				r.traced = append(r.traced, runIteration(w, traced, sampler, false, true))
			} else {
				r.untraced = append(r.untraced, runIteration(w, cfg, sampler, false, false))
			}
		}
	} else {
		r.untraced = append(r.untraced, first)
		for time.Since(start) < budget {
			r.untraced = append(r.untraced, runIteration(w, cfg, sampler, false, false))
		}
	}
	checkRepeatable(r.all())
	r.events = sink.since(0)
	return r
}

// checkRepeatable checks that every iteration produced the same outputs as
// the first: the workload is deterministic at a fixed seed.
func checkRepeatable(its []*iteration) {
	ref := its[0]
	for i, it := range its[1:] {
		if len(ref.failures) > 0 || len(it.failures) > 0 {
			continue
		}
		fd, rfd := it.fd, ref.fd
		fd.Elapsed, rfd.Elapsed = 0, 0
		sim, rsim := it.sim, ref.sim
		if it.summary != ref.summary || fd != rfd || it.placementHash != ref.placementHash ||
			sim.Injected != rsim.Injected || sim.Cycles != rsim.Cycles || sim.AvgLatencyCycles != rsim.AvgLatencyCycles {
			it.failures = append(it.failures, fmt.Sprintf("iteration %d: outputs differ from iteration 1", i+2))
		}
	}
}

// endToEnd reports the medians of the untraced iterations.
func endToEnd(w workload, r runResult) []metric {
	its := r.untraced
	med := func(f func(it *iteration) float64) float64 { return median(its, f) }
	sec := func(f func(it *iteration) time.Duration) float64 {
		return med(func(it *iteration) float64 { return f(it).Seconds() })
	}
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	return []metric{
		{name: "setup_s", value: medianOf(setups), unit: "s", show: true},
		{name: "map_s", value: sec(func(it *iteration) time.Duration { return it.mapT }), unit: "s", show: true},
		{name: "evaluate_s", value: sec(func(it *iteration) time.Duration { return it.evaluate }), unit: "s", show: true},
		{name: "simulate_s", value: sec(func(it *iteration) time.Duration { return it.simulate }), unit: "s", show: w.simulate, hidden: true},
		{name: "pipeline_s", value: sec((*iteration).pipeline), unit: "s", show: true},
		{name: "peak_heap_mib", value: med(func(it *iteration) float64 { return mib(it.peakHeap) }), unit: "MiB", show: true},
		{name: "energy", value: med(func(it *iteration) float64 { return it.summary.Energy }), unit: "EN_r", show: true},
		{name: "avg_latency", value: med(func(it *iteration) float64 { return it.summary.AvgLatency }), unit: "L_r", show: true},
		{name: "max_latency", value: med(func(it *iteration) float64 { return it.summary.MaxLatency }), unit: "L_r", show: true},
		{name: "avg_congestion", value: med(func(it *iteration) float64 { return it.summary.AvgCongestion }), unit: "spikes", show: true},
		{name: "max_congestion", value: med(func(it *iteration) float64 { return it.summary.MaxCongestion }), unit: "spikes", show: true},
		{name: "sim_cycles", value: med(func(it *iteration) float64 { return float64(it.sim.Cycles) }), unit: "cycles", show: w.simulate, hidden: true},
		{name: "sim_avg_latency_cycles", value: med(func(it *iteration) float64 { return it.sim.AvgLatencyCycles }), unit: "cycles", show: w.simulate, hidden: true},
	}
}

// perLayer reports the medians of the traced iterations. A layer the
// workload does not call reports zero.
func perLayer(w workload, r runResult) []metric {
	its := r.traced
	med := func(f func(it *iteration) float64) float64 { return median(its, f) }
	sec := func(f func(it *iteration) time.Duration) float64 {
		return med(func(it *iteration) float64 { return f(it).Seconds() })
	}
	// The initial placement is either HSC or the Random baseline.
	hscS := sec(func(it *iteration) time.Duration { return it.place.wall })
	hscAllocs := med(func(it *iteration) float64 { return float64(it.place.allocs) })
	randomS := 0.0
	if w.initial == initRandom {
		hscS, hscAllocs, randomS = 0, 0, hscS
	}
	fdSweeps := sec(func(it *iteration) time.Duration { return it.fdSweeps })
	fdWall := sec(func(it *iteration) time.Duration { return it.finetune.wall })
	simWall := sec(func(it *iteration) time.Duration { return it.simStage.wall })
	pipeline := sec((*iteration).pipeline)
	untraced := median(r.untraced, func(it *iteration) float64 { return it.pipeline().Seconds() })
	injected := med(func(it *iteration) float64 { return float64(it.sim.Injected) })
	return []metric{
		{name: "snn.build_s", value: sec(func(it *iteration) time.Duration { return it.setup }), unit: "s", show: true},
		{name: "pcn.expand_s", value: sec(func(it *iteration) time.Duration { return it.expand.wall }), unit: "s", show: true},
		{name: "pcn.allocs", value: med(func(it *iteration) float64 { return float64(it.expand.allocs) }), unit: "count", show: true},
		{name: "pcn.peak_heap_mib", value: med(func(it *iteration) float64 { return mib(it.expand.peak) }), unit: "MiB", show: true},
		{name: "pcn.clusters", value: med(func(it *iteration) float64 { return float64(it.clusters) }), unit: "count", show: true},
		{name: "pcn.edges", value: med(func(it *iteration) float64 { return float64(it.edges) }), unit: "count", show: true},
		{name: "mapping.hsc_s", value: hscS, unit: "s", show: true},
		{name: "mapping.hsc_allocs", value: hscAllocs, unit: "count", show: true},
		{name: "baseline.random_s", value: randomS, unit: "s", show: true},
		{name: "mapping.fd_s", value: fdWall, unit: "s", show: true},
		{name: "mapping.fd_setup_s", value: sec(func(it *iteration) time.Duration { return it.finetune.wall - it.fdSweeps }), unit: "s", show: true},
		{name: "mapping.fd_sweeps_s", value: fdSweeps, unit: "s", show: true},
		{name: "mapping.fd_iterations", value: med(func(it *iteration) float64 { return float64(it.fd.Iterations) }), unit: "count", show: true},
		{name: "mapping.fd_swaps", value: med(func(it *iteration) float64 { return float64(it.fd.Swaps) }), unit: "count", show: true},
		{name: "mapping.fd_tension_checks", value: med(func(it *iteration) float64 { return float64(it.fd.TensionChecks) }), unit: "count", show: true},
		{name: "mapping.fd_swap_yield", value: med(func(it *iteration) float64 { return ratio(float64(it.fd.Swaps), float64(it.fd.TensionChecks)) }), unit: "ratio", show: true},
		{name: "mapping.fd_energy_drop", value: med(func(it *iteration) float64 { return 1 - ratio(it.fd.FinalEnergy, it.fd.InitialEnergy) }), unit: "ratio", show: true},
		{name: "mapping.fd_allocs", value: med(func(it *iteration) float64 { return float64(it.finetune.allocs) }), unit: "count", show: true},
		{name: "mapping.fd_peak_heap_mib", value: med(func(it *iteration) float64 { return mib(it.finetune.peak) }), unit: "MiB", show: true},
		{name: "metrics.edgewalk_s", value: sec(func(it *iteration) time.Duration { return it.edgewalk }), unit: "s", show: true},
		{name: "metrics.congestion_s", value: sec(func(it *iteration) time.Duration { return it.congestion }), unit: "s", show: true},
		{name: "metrics.bbox_work", value: med(func(it *iteration) float64 { return float64(it.bboxWork) }), unit: "count", show: true},
		{name: "metrics.allocs", value: med(func(it *iteration) float64 { return float64(it.evalAllocs) }), unit: "count", show: true},
		{name: "noc.simulate_s", value: simWall, unit: "s", show: true},
		{name: "noc.injected", value: injected, unit: "count", show: true},
		{name: "noc.dropped", value: med(func(it *iteration) float64 { return float64(it.sim.Dropped) }), unit: "count", show: true},
		{name: "noc.wire_traversals", value: med(func(it *iteration) float64 { return float64(it.sim.WireTraversals) }), unit: "count", show: true},
		{name: "noc.max_queue_len", value: med(func(it *iteration) float64 { return float64(it.sim.MaxQueueLen) }), unit: "count", show: true},
		{name: "noc.allocs", value: med(func(it *iteration) float64 { return float64(it.simStage.allocs) }), unit: "count", show: true},
		{name: "noc.peak_heap_mib", value: med(func(it *iteration) float64 { return mib(it.simStage.peak) }), unit: "MiB", show: true},
		{name: "noc.spikes_per_s", value: ratio(injected, simWall), unit: "1/s", show: true},
		{name: "noc.sim_cycles", value: med(func(it *iteration) float64 { return float64(it.sim.Cycles) }), unit: "cycles", show: true},
		{name: "noc.sim_avg_latency_cycles", value: med(func(it *iteration) float64 { return it.sim.AvgLatencyCycles }), unit: "cycles", show: true},
		{name: "trace.overhead", value: ratio(pipeline, untraced), unit: "ratio", show: true},
		// The shares the workloads were chosen by; README.md records them.
		{name: "share.fd_setup_of_fd", value: ratio(fdWall-fdSweeps, fdWall), unit: "ratio", show: true, hidden: true},
		{name: "share.fd_sweeps_of_fd", value: ratio(fdSweeps, fdWall), unit: "ratio", show: true, hidden: true},
		{name: "share.noc_of_pipeline", value: ratio(simWall, pipeline), unit: "ratio", show: true, hidden: true},
	}
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not call).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(its []iteration, f func(it *iteration) float64) float64 {
	vs := make([]float64, len(its))
	for i := range its {
		vs[i] = f(&its[i])
	}
	return medianOf(vs)
}

func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	vs = slices.Clone(vs)
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
