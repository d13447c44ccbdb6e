package noc

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"snnmap/internal/hw"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// shardSweep is the shard-count axis of the determinism sweep: the
// single-goroutine engine, an even split, an uneven split (64 rows / 3),
// and a prime count that leaves single-row strips on small meshes.
var shardSweep = []int{1, 2, 3, 7}

// TestShardedMatchesReferenceSweep is the tentpole determinism contract:
// for every shard count × workload combination the sharded engine must
// produce a Result bit-identical to SimulateReference — every field,
// including traversal vectors, drop counters, float aggregates and queue
// peaks. Run under -race this also proves the strip ownership discipline
// (no queue is touched by two goroutines).
func TestShardedMatchesReferenceSweep(t *testing.T) {
	for _, c := range sweepCases(t) {
		t.Run(c.name, func(t *testing.T) {
			for _, msg := range sweepMismatches([]sweepCase{c}, shardSweep) {
				t.Error(msg)
			}
		})
	}
}

// TestShardedOversubscribed runs the sweep with one P for up to seven
// goroutines: every waiter at the cycle gate must yield to the strips it
// waits for, so the runs finish in bounded time, and finish bit-identical.
func TestShardedOversubscribed(t *testing.T) {
	cases := sweepCases(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	done := make(chan []string, 1) // never blocks the sender after a timeout
	go func() { done <- sweepMismatches(cases, []int{2, 7}) }()
	select {
	case msgs := <-done:
		for _, msg := range msgs {
			t.Error(msg)
		}
	case <-time.After(5 * time.Minute):
		t.Fatal("sharded sweep at GOMAXPROCS=1 did not finish in 5 minutes")
	}
}

type sweepCase struct {
	name string
	cfg  Config
	p    *pcn.PCN
	pl   *place.Placement
}

// sweepCases loads the sweep workloads: sparse injection waves, a long
// tail, failed links, and the contended regime — a dense 16×16 mesh whose
// queues grow hundreds of flits deep over thousands of cycles, with
// unbounded and with bounded queues.
func sweepCases(t *testing.T) []sweepCase {
	var cases []sweepCase
	for _, wl := range []struct {
		name string
		cfg  Config
		load func(testing.TB) (*pcn.PCN, *place.Placement)
	}{
		{"sparse64x64", Config{InjectionInterval: 24}, sparse64x64Workload},
		{"long-tail", Config{InjectionInterval: 4}, longTailWorkload},
		{"faulted-links", Config{FaultAware: true}, faultedLinksWorkload},
		{"dense16x16", Config{}, dense16x16Workload},
		{"dense16x16/bounded", Config{QueueCap: 8}, dense16x16Workload},
	} {
		p, pl := wl.load(t)
		cfg := wl.cfg
		if wl.name == "faulted-links" {
			cfg.Defects = faultedLinksDefects(t, pl.Mesh)
		}
		cases = append(cases, sweepCase{wl.name, cfg, p, pl})
	}
	return cases
}

// sweepMismatches runs every case through the reference and through the
// sharded engine at each shard count, and describes each Result that is
// not bit-identical.
func sweepMismatches(cases []sweepCase, shards []int) []string {
	var msgs []string
	for _, c := range cases {
		want, err := SimulateReference(context.Background(), c.p, c.pl, c.cfg)
		if err != nil {
			msgs = append(msgs, fmt.Sprintf("%s: reference: %v", c.name, err))
			continue
		}
		for _, n := range shards {
			cfg := c.cfg
			cfg.Shards = n
			got, err := Simulate(c.p, c.pl, cfg)
			switch {
			case err != nil:
				msgs = append(msgs, fmt.Sprintf("%s shards=%d: %v", c.name, n, err))
			case !reflect.DeepEqual(got, want):
				msgs = append(msgs, fmt.Sprintf("%s shards=%d: Result diverges from reference:\nsharded:   %+v\nreference: %+v", c.name, n, got, want))
			}
		}
	}
	return msgs
}

// dense16x16Workload is the contended regime: every core sends 400 spikes
// half the mesh height away and one column over, so up to eight sources
// share a vertical link, queues reach ~400 flits and the run lasts ~3200
// cycles.
func dense16x16Workload(t testing.TB) (*pcn.PCN, *place.Placement) {
	return denseWorkload(t, 16, 400)
}

// faultedLinksWorkload reuses the random corpus generator on a 16×16 mesh
// sized so every shard count in the sweep gets multi-row strips.
func faultedLinksWorkload(t testing.TB) (*pcn.PCN, *place.Placement) {
	return randomCorpusWorkload(t, 9, 16, 16, 120, 600)
}

func faultedLinksDefects(t testing.TB, mesh hw.Mesh) *hw.DefectMap {
	t.Helper()
	d := hw.InjectUniform(mesh, 0, 0.10, 13)
	if d.NumFailedLinks() == 0 {
		t.Fatal("seed produced no failed links; pick another seed")
	}
	return d
}

// TestShardedMatchesReferenceCorpus runs the full golden equivalence corpus
// (routings, bounded queues, dead cores, failed links, sparse injection)
// through the sharded engine at shard counts 2 and 3, asserting
// bit-identity with the reference — including the bounded-queue
// configurations that exercise the coordinator's sequential-apply fallback.
func TestShardedMatchesReferenceCorpus(t *testing.T) {
	mesh := hw.MustMesh(12, 12)
	deadMap := hw.InjectUniform(mesh, 0.05, 0, 7)
	linkMap := hw.InjectUniform(mesh, 0, 0.08, 11)
	mixedMap := hw.InjectUniform(mesh, 0.05, 0.05, 3)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"pristine/xy", Config{}},
		{"pristine/yx", Config{Routing: RouteYX}},
		{"pristine/o1turn", Config{Routing: RouteO1Turn}},
		{"pristine/bounded", Config{QueueCap: 2}},
		{"pristine/bounded-yx", Config{Routing: RouteYX, QueueCap: 1}},
		{"pristine/sparse-injection", Config{InjectionInterval: 32, SpikesPerUnit: 3}},
		{"dead-cores/fault-aware", Config{Defects: deadMap, FaultAware: true}},
		{"failed-links/fault-aware", Config{Defects: linkMap, FaultAware: true}},
		{"failed-links/o1turn", Config{Routing: RouteO1Turn, Defects: linkMap, FaultAware: true}},
		{"mixed/bounded-fault-aware", Config{QueueCap: 4, Defects: mixedMap, FaultAware: true, WatchdogCycles: 2000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				p, pl := randomCorpusWorkload(t, seed, 12, 12, 60, 300)
				want, errWant := SimulateReference(context.Background(), p, pl, tc.cfg)
				for _, shards := range []int{2, 3} {
					cfg := tc.cfg
					cfg.Shards = shards
					got, errGot := Simulate(p, pl, cfg)
					if (errGot == nil) != (errWant == nil) {
						t.Fatalf("seed %d shards=%d: error mismatch: sharded=%v reference=%v", seed, shards, errGot, errWant)
					}
					if errGot != nil {
						if errGot.Error() != errWant.Error() {
							t.Fatalf("seed %d shards=%d: error text mismatch:\nsharded:   %v\nreference: %v", seed, shards, errGot, errWant)
						}
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d shards=%d: Result mismatch:\nsharded:   %+v\nreference: %+v", seed, shards, got, want)
					}
				}
			}
		})
	}
}

// TestShardedCrossBoundaryDetour pins the hardest boundary interaction: a
// failed vertical link lying exactly on a strip boundary, forcing detour
// traffic to cross between goroutines in both directions. Every shard
// count must deliver the spike and agree with the reference bit for bit.
func TestShardedCrossBoundaryDetour(t *testing.T) {
	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(4, 3)
	// src at (0,0), dst at (3,0): straight XY path runs down column 0.
	pl := placeAt(t, p, mesh, mesh.Coord(0), mesh.Coord(9))
	d := hw.NewDefectMap(mesh)
	// Fail the vertical link between rows 1 and 2 in column 0 — with 2 or 4
	// shards that link is a strip boundary, so the detour around it ships
	// flits across the exchange buffers.
	if err := d.FailLink(3, 6); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Defects: d, FaultAware: true}
	want, err := SimulateReference(context.Background(), p, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Delivered != 1 {
		t.Fatalf("reference did not deliver around the fault: %+v", want)
	}
	for _, shards := range []int{2, 4} {
		shardCfg := cfg
		shardCfg.Shards = shards
		got, err := Simulate(p, pl, shardCfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: detour across strip boundary diverges:\nsharded:   %+v\nreference: %+v", shards, got, want)
		}
	}
}

// TestShardedErrorPaths pins failure equivalence: a MaxCycles overrun and a
// pre-canceled context must produce byte-identical error text and matching
// partial traversal vectors at every shard count.
func TestShardedErrorPaths(t *testing.T) {
	p, pl := randomCorpusWorkload(t, 1, 8, 8, 30, 120)
	for _, cfg := range []Config{
		{MaxCycles: 3},
		{InjectionInterval: 500, SpikesPerUnit: 4, MaxCycles: 750},
	} {
		want, errWant := SimulateReference(context.Background(), p, pl, cfg)
		if errWant == nil {
			t.Fatalf("MaxCycles=%d: expected the reference to fail", cfg.MaxCycles)
		}
		for _, shards := range shardSweep {
			shardCfg := cfg
			shardCfg.Shards = shards
			got, errGot := Simulate(p, pl, shardCfg)
			if errGot == nil || !errors.Is(errGot, ErrLivelock) || errGot.Error() != errWant.Error() {
				t.Fatalf("MaxCycles=%d shards=%d: error mismatch:\nsharded:   %v\nreference: %v", cfg.MaxCycles, shards, errGot, errWant)
			}
			if !reflect.DeepEqual(got.RouterTraversals, want.RouterTraversals) {
				t.Fatalf("MaxCycles=%d shards=%d: partial traversals diverge", cfg.MaxCycles, shards)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateContext(ctx, p, pl, Config{Shards: 3}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled sharded run: got %v, want ErrCanceled", err)
	}
}

// TestShardedWorkersExit pins the workers' lifetime: after a completed
// run, a MaxCycles ErrLivelock and a context cancelled mid-run from another
// goroutine, the goroutine count returns to its baseline.
func TestShardedWorkersExit(t *testing.T) {
	p, pl := dense16x16Workload(t)
	longP, longPl := denseWorkload(t, 16, 2000) // ~16,000 cycles: long enough to cancel mid-run
	base := runtime.NumGoroutine()
	requireBaseline := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines still running, baseline %d", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, shards := range []int{2, 7} {
		if _, err := Simulate(p, pl, Config{Shards: shards}); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		requireBaseline(fmt.Sprintf("shards=%d completed", shards))

		if _, err := Simulate(p, pl, Config{Shards: shards, MaxCycles: 100}); !errors.Is(err, ErrLivelock) {
			t.Fatalf("shards=%d MaxCycles=100: got %v, want ErrLivelock", shards, err)
		}
		requireBaseline(fmt.Sprintf("shards=%d livelock", shards))

		// The first progress report with deliveries releases a goroutine
		// that cancels the run, so the cancel lands while strips are busy.
		ctx, cancel := context.WithCancel(context.Background())
		progressed := make(chan struct{})
		var once sync.Once
		release := func() { once.Do(func() { close(progressed) }) }
		go func() {
			<-progressed
			cancel()
		}()
		o := obs.New(obs.Config{ProgressEvery: time.Nanosecond, OnProgress: func(pr obs.Progress) {
			if pr.Done > 0 {
				release()
			}
		}})
		res, err := SimulateContext(ctx, longP, longPl, Config{Shards: shards, Obs: o})
		release()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("shards=%d mid-run cancel: got %v, want ErrCanceled", shards, err)
		}
		if res.Delivered == 0 || res.Delivered >= res.Injected {
			t.Fatalf("shards=%d: cancel did not land mid-run: delivered %d of %d", shards, res.Delivered, res.Injected)
		}
		requireBaseline(fmt.Sprintf("shards=%d canceled", shards))
	}
}

// TestShardsValidation covers the Shards knob's edges: negative counts are
// rejected by Validate, counts exceeding the mesh's rows are rejected when
// the mesh is known, and a shard count equal to the row count (single-row
// strips) works and stays bit-identical.
func TestShardsValidation(t *testing.T) {
	if err := (Config{Shards: -1}).Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Shards=-1: got %v, want ErrBadConfig", err)
	}
	for _, shards := range []int{0, 1, 4} {
		if err := (Config{Shards: shards}).Validate(); err != nil {
			t.Errorf("Shards=%d must validate: %v", shards, err)
		}
	}

	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(3, 3)
	pl := placeAt(t, p, mesh, mesh.Coord(0), mesh.Coord(2))
	if _, err := Simulate(p, pl, Config{Shards: 4}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Shards=4 on a 3-row mesh: got %v, want ErrBadConfig", err)
	}

	want, err := SimulateReference(context.Background(), p, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(p, pl, Config{Shards: 3}) // one row per strip
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("single-row strips diverge:\nsharded:   %+v\nreference: %+v", got, want)
	}
}

func TestClampShards(t *testing.T) {
	for _, tc := range []struct{ n, rows, want int }{
		{0, 8, 1},
		{-3, 8, 1},
		{1, 8, 1},
		{4, 8, 4},
		{8, 8, 8},
		{16, 8, 8},
	} {
		if got := ClampShards(tc.n, tc.rows); got != tc.want {
			t.Errorf("ClampShards(%d, %d) = %d, want %d", tc.n, tc.rows, got, tc.want)
		}
	}
}
