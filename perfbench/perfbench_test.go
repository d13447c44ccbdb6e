package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/noc"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// standIns run each workload's pipeline at a size that takes milliseconds.
var standIns = []workload{
	{name: "hsc_fd_dnn65k", net: snn.DNN65K, side: 4, initial: initHSC},
	{name: "fd_random_dnn65k", net: snn.DNN65K, side: 4, initial: initRandom},
	{name: "sim_lenet_mnist", net: snn.LeNetMNIST, side: 3, initial: initHSC, simulate: true},
}

// outputs is what must repeat exactly: the quality metrics and the counts
// of work done.
type outputs struct {
	summary          [5]float64
	fdIterations     int
	fdSwaps          int64
	simCycles        int
	nocInjected      int64
	placementHash    uint64
	fdInitial, fdEnd float64
}

func outputsOf(t *testing.T, w workload, workers int, split bool) outputs {
	t.Helper()
	cfg := runConfig{workers: workers, randomSeed: 7}
	if split {
		cfg.sink = &memSink{}
	}
	s := newHeapSampler()
	defer s.stop()
	it := runIteration(w, cfg, s, true, split)
	if len(it.failures) > 0 {
		t.Fatalf("%s workers=%d: checks failed: %v", w.name, workers, it.failures)
	}
	sm := it.summary
	return outputs{
		summary:       [5]float64{sm.Energy, sm.AvgLatency, sm.MaxLatency, sm.AvgCongestion, sm.MaxCongestion},
		fdIterations:  it.fd.Iterations,
		fdSwaps:       it.fd.Swaps,
		simCycles:     it.sim.Cycles,
		nocInjected:   it.sim.Injected,
		placementHash: it.placementHash,
		fdInitial:     it.fd.InitialEnergy,
		fdEnd:         it.fd.FinalEnergy,
	}
}

func TestDeterministic(t *testing.T) {
	for _, w := range standIns {
		t.Run(w.name, func(t *testing.T) {
			first := outputsOf(t, w, 1, false)
			if first.summary[0] == 0 {
				t.Fatal("zero energy: the stand-in mapped nothing")
			}
			for _, c := range []struct {
				workers int
				split   bool
			}{{1, false}, {runtime.NumCPU(), false}, {runtime.NumCPU(), true}} {
				if got := outputsOf(t, w, c.workers, c.split); got != first {
					t.Errorf("workers=%d split=%v: outputs %+v, want %+v", c.workers, c.split, got, first)
				}
			}
		})
	}
}

func TestCorruptPlacementIsCounted(t *testing.T) {
	for _, w := range standIns {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{workers: 2, randomSeed: 7, corrupt: func(pl *place.Placement) {
				pl.PosOf[1] = pl.PosOf[0] // two clusters on one core
			}}
			s := newHeapSampler()
			defer s.stop()
			it := runIteration(w, cfg, s, true, false)
			if len(it.failures) == 0 {
				t.Fatal("a placement with two clusters on one core passed every check")
			}
			if !strings.Contains(strings.Join(it.failures, "\n"), "placement:") {
				t.Errorf("failures %v do not name the invalid placement", it.failures)
			}
		})
	}
}

// TestChecksCatchWrongOutputs feeds each check an output with one field
// wrong and expects it to fail.
func TestChecksCatchWrongOutputs(t *testing.T) {
	p, err := pcn.Expand(snn.DNN65K(), pcn.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	mesh := hw.MustMesh(4, 4)
	pl, err := mapping.InitialPlacement(p, mesh, curve.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	cost := hw.DefaultCostModel()
	good := metrics.Evaluate(p, pl, cost, metrics.Options{})
	if got := checkPlacement(p, pl, good, cost); len(got) > 0 {
		t.Fatalf("correct summary failed: %v", got)
	}
	for i := 0; i < 4; i++ {
		s := good
		*[]*float64{&s.Energy, &s.AvgLatency, &s.MaxLatency, &s.AvgCongestion}[i] *= 1 + 1e-6
		if got := checkPlacement(p, pl, s, cost); len(got) != 1 {
			t.Errorf("summary %+v: %d failures, want 1", s, len(got))
		}
	}

	grid := metrics.CongestionGrid(p, pl, 1, 1)
	if got := checkGrid(grid, good, mesh); len(got) > 0 {
		t.Fatalf("correct grid failed: %v", got)
	}
	grid[0] += 1e-6 * good.AvgCongestion * float64(mesh.Cores())
	if got := checkGrid(grid, good, mesh); len(got) == 0 {
		t.Error("a grid that does not sum to AvgCongestion × cores passed")
	}

	if got := checkFD(mapping.FDStats{Converged: true, InitialEnergy: 1, FinalEnergy: 2}); len(got) != 1 {
		t.Errorf("energy rise: %v", got)
	}
	if got := checkFD(mapping.FDStats{InitialEnergy: 2, FinalEnergy: 1}); len(got) != 1 {
		t.Errorf("no convergence: %v", got)
	}

	spu := spikesPerUnit(p)
	res, err := noc.Simulate(p, pl, noc.Config{SpikesPerUnit: spu})
	if err != nil {
		t.Fatal(err)
	}
	if got := checkSim(p, res, spu); len(got) > 0 {
		t.Fatalf("correct simulation failed: %v", got)
	}
	lost := res
	lost.Delivered--
	if got := checkSim(p, lost, spu); len(got) == 0 {
		t.Error("a lost spike passed")
	}
	dropped := res
	dropped.Delivered--
	dropped.Dropped++
	if got := checkSim(p, dropped, spu); len(got) == 0 {
		t.Error("a dropped spike passed")
	}
}

func TestTraceValidates(t *testing.T) {
	w := standIns[2]
	cfg := runConfig{workers: 2}
	r := measureRun(w, cfg, 1, true)
	for _, it := range r.all() {
		if len(it.failures) > 0 {
			t.Fatalf("checks failed: %v", it.failures)
		}
	}
	if len(r.traced) == 0 || len(r.untraced) == 0 {
		t.Fatalf("traced run made %d traced and %d untraced iterations", len(r.traced), len(r.untraced))
	}
	if spanTotal(r.events, "fd.sweep") == 0 {
		t.Error("no fd.sweep span recorded")
	}
	if err := writeTrace(filepath.Join(t.TempDir(), "trace.json"), r.events); err != nil {
		t.Fatal(err)
	}
}

// TestResultLine runs the smallest real workload through the command and
// checks the last line against BENCHMARK.json: every metric it names, and
// nothing else, with the unit it states.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("maps MobileNet")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, err := workloadByName(wl.Name); err != nil {
			t.Error(err)
		}
	}
	for trace, want := range [][]named{spec.EndToEnd, spec.PerLayer} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "sim_mobilenet", "--seconds", "1", "--trace", string(rune('0' + trace)), "--trace-dir", t.TempDir()}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace=%d: correct=%v failed=%d attempted=%d: %s", trace, res.Correct, res.Failed, res.Attempted, errOut.String())
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace=%d: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace=%d: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
	}
}
