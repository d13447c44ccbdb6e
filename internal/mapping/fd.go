package mapping

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/obs"
	"snnmap/internal/par"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// FDConfig tunes Algorithm 3.
type FDConfig struct {
	// Potential is the field shape u(p); nil means L2Sq (the paper's
	// best-performing method j).
	Potential Potential
	// Lambda is the fraction of the tension queue swapped per iteration
	// (§4.5 design choice 2). Zero means the paper's practical value 0.3.
	Lambda float64
	// MinGain is the smallest tension treated as positive; it guards the
	// monotone-descent argument (Eq. 31) against float round-off in the
	// incrementally maintained force arrays. Zero means adaptive:
	// max(1e-9, 1e-12·E_s(initial)), so drift proportional to the energy
	// scale never masquerades as real tension (the flat u_a potential
	// produces exactly-zero tensions that drift would otherwise keep
	// re-queueing forever).
	MinGain float64
	// MaxIterations caps the outer loop (0 = until the queue drains).
	MaxIterations int
	// Budget caps wall-clock time (0 = unlimited). When exceeded the
	// current placement is returned with Converged=false, mirroring the
	// paper's early-stop protocol for slow methods.
	Budget time.Duration
	// Defects marks dead cores and degraded capacities on the mesh. Swaps
	// that would move a cluster onto a dead core are blocked; with a
	// constrained Constraints, swaps overfilling a capacity-degraded core
	// are blocked too. Nil means a pristine mesh.
	Defects *hw.DefectMap
	// Constraints is the per-core capacity baseline that Defects' degrade
	// scales apply to. The zero value means unconstrained (degraded cores
	// then only differ from healthy ones when dead).
	Constraints hw.Constraints
	// Workers parallelizes the O(|E|) build phases: the initial forces,
	// the initial tension queue and energy accounting. The sweep itself is
	// sequential. Results are bit-identical regardless of the value: force
	// cells are disjoint, the queue is fully sorted by a total order, and
	// energy partial sums use a fixed chunk layout reduced in chunk order.
	// 0 or 1 means sequential (the paper's single-threaded C++ setting).
	Workers int
	// Checkpoint, when non-nil, snapshots the fine-tuning state so an
	// interrupted run can continue with ResumeFinetune instead of
	// restarting. Snapshots are taken at iteration boundaries only, where
	// the engine state is exactly a loop-head state — the invariant that
	// makes resumption bit-identical to the uninterrupted run.
	Checkpoint *CheckpointConfig
	// Obs receives per-sweep spans, counters (swaps, tension checks, queue
	// sizes), and throttled progress; nil disables telemetry. Observe-only:
	// hot-loop bookkeeping stays in plain local counters published at sweep
	// boundaries, so attaching an observer never changes the placement or
	// FDStats produced. Not part of snapshots.
	Obs *obs.Observer
}

// CheckpointConfig configures FDConfig.Checkpoint hooks.
type CheckpointConfig struct {
	// Interval takes a snapshot at the head of every Interval-th completed
	// iteration. Zero snapshots only on cancellation (every canceled run
	// with a non-nil Fn still receives one final snapshot, so the caller
	// always holds a resumable state).
	Interval int
	// Fn receives each snapshot. The snapshot is a deep copy — it stays
	// valid after Finetune returns and across further iterations. A non-nil
	// error aborts the run and is returned to the caller.
	Fn func(*Snapshot) error
}

func (c FDConfig) withDefaults() FDConfig {
	if c.Potential == nil {
		c.Potential = L2Sq{}
	}
	if c.Lambda == 0 {
		c.Lambda = 0.3
	}
	return c
}

// Validate checks the configuration, returning an error wrapping
// ErrBadConfig on the first problem. Finetune and FinetuneContext call it
// after resolving defaults, so the zero values (nil Potential, Lambda 0)
// never reach it from those paths; validating a raw FDConfig directly
// reports them as invalid.
func (c FDConfig) Validate() error {
	if c.Potential == nil {
		return fmt.Errorf("%w: nil potential", ErrBadConfig)
	}
	if math.IsNaN(c.Lambda) || c.Lambda <= 0 || c.Lambda > 1 {
		return fmt.Errorf("%w: lambda %g outside (0, 1]", ErrBadConfig, c.Lambda)
	}
	if math.IsNaN(c.MinGain) || c.MinGain < 0 {
		return fmt.Errorf("%w: negative MinGain %g", ErrBadConfig, c.MinGain)
	}
	if c.MaxIterations < 0 {
		return fmt.Errorf("%w: negative MaxIterations %d", ErrBadConfig, c.MaxIterations)
	}
	if c.Budget < 0 {
		return fmt.Errorf("%w: negative Budget %v", ErrBadConfig, c.Budget)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: negative Workers %d", ErrBadConfig, c.Workers)
	}
	if c.Constraints.SpareRows < 0 {
		return fmt.Errorf("%w: negative SpareRows %d", ErrBadConfig, c.Constraints.SpareRows)
	}
	if c.Checkpoint != nil {
		if c.Checkpoint.Interval < 0 {
			return fmt.Errorf("%w: negative checkpoint interval %d", ErrBadConfig, c.Checkpoint.Interval)
		}
		if c.Checkpoint.Fn == nil {
			return fmt.Errorf("%w: checkpoint config without a Fn callback", ErrBadConfig)
		}
	}
	return nil
}

// effectiveMinGain resolves the adaptive MinGain default against the
// initial system energy.
func (c FDConfig) effectiveMinGain(initialEnergy float64) float64 {
	if c.MinGain > 0 {
		return c.MinGain
	}
	eps := 1e-12 * math.Abs(initialEnergy)
	if eps < 1e-9 {
		eps = 1e-9
	}
	return eps
}

// FDStats reports what one Finetune run did.
type FDStats struct {
	// Iterations is the number of outer queue iterations executed.
	Iterations int
	// Swaps is the number of executed position swaps.
	Swaps int64
	// TensionChecks counts tension evaluations (for complexity analysis).
	TensionChecks int64
	// InitialEnergy and FinalEnergy are the system total potential energy
	// E_s (Eq. 23) before and after optimization.
	InitialEnergy, FinalEnergy float64
	// Converged reports whether the queue drained (as opposed to hitting
	// MaxIterations or Budget).
	Converged bool
	// Elapsed is the wall-clock optimization time.
	Elapsed time.Duration
}

// Finetune runs the Force-Directed algorithm (Algorithm 3) on the placement
// in place, mutating pl, and returns run statistics. The placement must be
// valid for the PCN.
func Finetune(p *pcn.PCN, pl *place.Placement, cfg FDConfig) (FDStats, error) {
	return FinetuneContext(context.Background(), p, pl, cfg)
}

// FinetuneContext is Finetune with cooperative cancellation: the sweep loop
// checks ctx between iterations and every few thousand pair evaluations, and
// returns an error wrapping ErrCanceled (with the statistics accumulated so
// far) when the context is done.
func FinetuneContext(ctx context.Context, p *pcn.PCN, pl *place.Placement, cfg FDConfig) (FDStats, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return FDStats{}, fmt.Errorf("mapping: finetune: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return FDStats{}, fmt.Errorf("mapping: finetune: %v: %w", err, ErrCanceled)
	}
	if len(pl.PosOf) != p.NumClusters {
		return FDStats{}, fmt.Errorf("mapping: placement covers %d clusters, PCN has %d", len(pl.PosOf), p.NumClusters)
	}
	start := time.Now()
	e := newFDEngine(p, pl, cfg)
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	stats := FDStats{InitialEnergy: e.systemEnergyParallel(workers)}
	minGain := cfg.effectiveMinGain(stats.InitialEnergy)

	// Build Force[p][0..3] for every occupied position (Alg. 3 lines 3-5).
	e.buildAllForces(workers)
	// Build the initial tension queue (lines 6-13).
	queue := e.initialQueue(workers)

	return e.run(ctx, cfg, queue, stats, minGain, start, 0)
}

// run drives the iteration loop from a loop-head state: either the freshly
// built one (FinetuneContext) or one restored from a Snapshot
// (ResumeFinetune). prior is wall-clock time already accumulated by earlier
// runs of the same job; it is folded into Elapsed so a resumed job reports
// cumulative statistics. Snapshots — both the interval-driven ones and the
// final cancellation snapshot — are only ever taken here at the loop head,
// where (placement, force array, ordered queue, stats, minGain) fully
// determine the rest of the run; that is the resume bit-identity invariant
// (see DESIGN.md).
func (e *fdEngine) run(ctx context.Context, cfg FDConfig, queue []pairTension, stats FDStats, minGain float64, start time.Time, prior time.Duration) (FDStats, error) {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	deadline := time.Time{}
	if cfg.Budget > 0 {
		deadline = start.Add(cfg.Budget)
	}
	ckpt := cfg.Checkpoint
	// A run resumed from the snapshot of iteration k must not immediately
	// re-emit snapshot k.
	lastSnap := stats.Iterations

	for len(queue) > 0 {
		if cfg.MaxIterations > 0 && stats.Iterations >= cfg.MaxIterations {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		if err := ctx.Err(); err != nil {
			stats.FinalEnergy = e.systemEnergyParallel(workers)
			stats.Elapsed = prior + time.Since(start)
			cerr := fmt.Errorf("mapping: finetune: %v: %w", err, ErrCanceled)
			if ckpt != nil && ckpt.Fn != nil {
				if serr := ckpt.Fn(e.snapshot(queue, stats, minGain)); serr != nil {
					return stats, errors.Join(cerr, fmt.Errorf("mapping: finetune: cancellation snapshot: %w", serr))
				}
			}
			return stats, cerr
		}
		if ckpt != nil && ckpt.Fn != nil && ckpt.Interval > 0 &&
			stats.Iterations > lastSnap && stats.Iterations%ckpt.Interval == 0 {
			lastSnap = stats.Iterations
			snapStats := stats
			snapStats.FinalEnergy = e.systemEnergyParallel(workers)
			snapStats.Elapsed = prior + time.Since(start)
			if err := ckpt.Fn(e.snapshot(queue, snapStats, minGain)); err != nil {
				return snapStats, fmt.Errorf("mapping: finetune: checkpoint at iteration %d: %w", stats.Iterations, err)
			}
		}
		stats.Iterations++

		// Telemetry wraps the sweep with a span and publishes the hot-loop
		// counters as before/after deltas; everything here is observe-only.
		var sweepSp obs.Span
		var swaps0, checks0 int64
		if cfg.Obs.Enabled() {
			sweepSp = cfg.Obs.Span("fd.sweep",
				obs.KV{K: "iter", V: float64(stats.Iterations)},
				obs.KV{K: "queue", V: float64(len(queue))})
			swaps0, checks0 = stats.Swaps, stats.TensionChecks
		}

		// Swap the top λ fraction of the queue (lines 17-29).
		e.beginEpoch()
		e.applyBatch(ctx, queue[:swapLimit(cfg.Lambda, len(queue))], minGain, &stats)

		// Rebuild the queue for the next iteration (lines 30-40): keep all
		// current pairs, add every pair touching an affected cluster,
		// recompute tensions and drop non-positive entries.
		queue = e.nextQueue(queue, minGain, &stats.TensionChecks)

		if cfg.Obs.Enabled() {
			sweepSp.End(
				obs.KV{K: "swaps", V: float64(stats.Swaps - swaps0)},
				obs.KV{K: "checks", V: float64(stats.TensionChecks - checks0)},
				obs.KV{K: "next_queue", V: float64(len(queue))})
			cfg.Obs.Progress("fd", int64(stats.Iterations), int64(cfg.MaxIterations))
		}
	}

	stats.Converged = len(queue) == 0
	stats.FinalEnergy = e.systemEnergyParallel(workers)
	stats.Elapsed = prior + time.Since(start)
	return stats, nil
}

// pairTension is one queue entry: an adjacent-cell pair and its tension at
// queue-build time.
type pairTension struct {
	id      int32
	tension float64
}

// fdEngine holds the mutable state of one Finetune run.
//
// Pair identifiers: the pair of cell idx with its right neighbor has id
// idx*2, with its bottom neighbor idx*2+1. Only in-mesh pairs are ever
// enqueued.
type fdEngine struct {
	p    *pcn.PCN
	und  *pcn.Undirected
	pl   *place.Placement
	mesh hw.Mesh
	pot  Potential
	// l2sq selects the exact-integer u_c kernels (DESIGN.md §5): with
	// u(p) = x² + y² every force term is w·float64(k) for a small integer k
	// that equals the Eval difference bit for bit. Any other potential,
	// including user-supplied ones, takes the generic Eval loop.
	l2sq bool
	// cell[idx] is the (row, column) of cell idx: the engine's one source of
	// cell coordinates, so no kernel divides by the mesh width.
	cell []cellXY
	// dirMask[idx] has bit d set when direction d stays on-mesh from cell
	// idx; force entries of off-mesh directions stay exactly zero.
	dirMask []uint8
	// defects/cons implement fault-aware swapping: pairs touching a dead
	// cell, or whose swap would overfill a degraded cell, report zero
	// tension and are therefore never enqueued or executed.
	defects *hw.DefectMap
	cons    hw.Constraints
	// unitCorr is 2·(u(1)−u(0)), the tension correction for mutually
	// connected adjacent clusters (see DESIGN.md: tension is the exact
	// swap ΔE_s, so the mutual edge — whose length a swap cannot change —
	// must not be counted).
	unitCorr float64
	// lambda is the queue fraction consumed per iteration.
	lambda float64
	// spareStart is the first mesh row reserved as a hot spare
	// (Constraints.SpareRows); pairs reaching into a reserved row report
	// zero tension so fine-tuning never occupies the spares. Equal to
	// mesh.Rows when there is no reservation.
	spareStart int32

	// force[idx*4+d] is Force[p][d] of Alg. 3 for the cluster at cell idx
	// (0 for empty cells and off-mesh directions).
	force []float64

	// mutw[id] caches the mutual undirected weight between the occupants of
	// pair id's two cells (0 when either is empty or they are unconnected),
	// so tension() never binary-searches the adjacency. A swap changes the
	// occupants of exactly two cells, so swapPair rebuilds only the ≤ 8 pair
	// entries touching them.
	mutw []float64
	// pairScratch is reusable swapPair scratch for the pair ids whose mutw a
	// swap invalidates (sequential use only).
	pairScratch []int32

	// Epoch-stamped membership marks for queue and affected-list dedupe.
	pairMark    []int32
	clusterMark []int32
	epoch       int32
	affected    []int32 // clusters affected in the current epoch

	// ids is reusable nextQueue scratch for candidate pair ids, hoisted here
	// so steady-state iterations allocate nothing.
	ids []int32
}

func newFDEngine(p *pcn.PCN, pl *place.Placement, cfg FDConfig) *fdEngine {
	mesh := pl.Mesh
	_, l2sq := cfg.Potential.(L2Sq)
	e := &fdEngine{
		p:           p,
		und:         p.Undirected(),
		pl:          pl,
		mesh:        mesh,
		pot:         cfg.Potential,
		l2sq:        l2sq,
		cell:        make([]cellXY, mesh.Cores()),
		dirMask:     make([]uint8, mesh.Cores()),
		defects:     cfg.Defects,
		cons:        cfg.Constraints,
		unitCorr:    2 * (cfg.Potential.AtUnit() - cfg.Potential.AtZero()),
		lambda:      cfg.Lambda,
		spareStart:  int32(cfg.Constraints.UsableRows(mesh)),
		force:       make([]float64, 4*mesh.Cores()),
		mutw:        make([]float64, 2*mesh.Cores()),
		pairScratch: make([]int32, 0, 8),
		pairMark:    make([]int32, 2*mesh.Cores()),
		clusterMark: make([]int32, p.NumClusters),
	}
	cols, rows := int32(mesh.Cols), int32(mesh.Rows)
	for idx := int32(0); idx < int32(mesh.Cores()); idx++ {
		r, c := idx/cols, idx%cols
		e.cell[idx] = cellXY{r, c}
		var m uint8
		if r > 0 {
			m |= maskUp
		}
		if r < rows-1 {
			m |= maskDown
			e.rebuildMutw(idx*2 + 1)
		}
		if c < cols-1 {
			m |= maskRight
			e.rebuildMutw(idx * 2)
		}
		if c > 0 {
			m |= maskLeft
		}
		e.dirMask[idx] = m
	}
	return e
}

// cellXY is a cell's row and column.
type cellXY struct{ x, y int32 }

// at returns the coordinate of cell idx.
func (e *fdEngine) at(idx int32) geom.Point {
	c := e.cell[idx]
	return geom.Point{X: int(c.x), Y: int(c.y)}
}

// Direction bits of fdEngine.dirMask.
const (
	maskUp    = 1 << geom.Up
	maskDown  = 1 << geom.Down
	maskRight = 1 << geom.Right
	maskLeft  = 1 << geom.Left
)

// systemEnergy returns E_s (Eq. 23) for the cluster range [lo, hi): the sum
// over connections of u(P(c_j)−P(c_i))·w. Undirected weights already
// combine both directions.
func (e *fdEngine) systemEnergy(lo, hi int) float64 {
	var total float64
	for c := lo; c < hi; c++ {
		tos, ws := e.und.Neighbors(c)
		if e.l2sq {
			pc := e.cell[e.pl.PosOf[c]]
			for k, to := range tos {
				if int(to) < c {
					continue // count each unordered pair once
				}
				pt := e.cell[e.pl.PosOf[to]]
				dx, dy := int(pt.x-pc.x), int(pt.y-pc.y)
				total += ws[k] * float64(dx*dx+dy*dy)
			}
			continue
		}
		pc := e.at(e.pl.PosOf[c])
		for k, to := range tos {
			if int(to) < c {
				continue // count each unordered pair once
			}
			total += ws[k] * e.pot.Eval(e.at(e.pl.PosOf[to]).Sub(pc))
		}
	}
	return total
}

// buildChunk is the fixed chunk size of the parallel build phases: clusters
// per E_s partial sum, cells per force or queue scan chunk. The layout
// depends only on the problem size — never on the worker count — so
// reducing E_s partials in chunk order yields the same float for any
// FDConfig.Workers even when individual contributions are not exactly
// representable (the Eq. 25 energy potential).
const buildChunk = 4096

// buildChunks runs fn(ci, lo, hi) for the buildChunk-sized chunks of
// [0, n) on the given worker count.
func buildChunks(workers, n int, fn func(ci, lo, hi int)) {
	par.Do(workers, (n+buildChunk-1)/buildChunk, func(ci int) {
		lo := ci * buildChunk
		fn(ci, lo, min(lo+buildChunk, n))
	})
}

// systemEnergyParallel computes E_s with the given worker count. Partial
// sums are produced per fixed chunk and reduced in chunk order, so the
// result is identical for any worker count.
func (e *fdEngine) systemEnergyParallel(workers int) float64 {
	n := e.p.NumClusters
	partial := make([]float64, (n+buildChunk-1)/buildChunk)
	buildChunks(workers, n, func(ci, lo, hi int) {
		partial[ci] = e.systemEnergy(lo, hi)
	})
	var total float64
	for _, p := range partial {
		total += p
	}
	return total
}

// buildAllForces fills the force array for every occupied cell, optionally
// in parallel (cells are disjoint, the placement is immutable during the
// build, so the result is identical for any worker count).
func (e *fdEngine) buildAllForces(workers int) {
	buildChunks(workers, e.mesh.Cores(), func(_, lo, hi int) {
		for idx := int32(lo); idx < int32(hi); idx++ {
			if e.pl.ClusterAt[idx] != place.None {
				e.rebuildForce(idx)
			}
		}
	})
}

// rebuildForce recomputes Force[idx][0..3] from scratch (Eq. 27) for the
// cluster currently at cell idx; empty cells get zero force.
func (e *fdEngine) rebuildForce(idx int32) {
	base := int(idx) * 4
	f := e.force[base : base+4 : base+4]
	f[geom.Up], f[geom.Down], f[geom.Right], f[geom.Left] = 0, 0, 0, 0
	c := e.pl.ClusterAt[idx]
	if c == place.None {
		return
	}
	mask := e.dirMask[idx]
	tos, ws := e.und.Neighbors(int(c))
	if e.l2sq {
		// u(dp) − u(dp−δ) is ∓2·dx−1 (Up/Down) or ±2·dy−1 (Right/Left).
		// The sums run in registers; off-mesh ones are discarded.
		pa := e.cell[idx]
		var up, down, right, left float64
		for k, to := range tos {
			pt := e.cell[e.pl.PosOf[to]]
			dx, dy := pt.x-pa.x, pt.y-pa.y
			w := ws[k]
			up += w * float64(-2*dx-1)
			down += w * float64(2*dx-1)
			right += w * float64(2*dy-1)
			left += w * float64(-2*dy-1)
		}
		if mask&maskUp != 0 {
			f[geom.Up] = up
		}
		if mask&maskDown != 0 {
			f[geom.Down] = down
		}
		if mask&maskRight != 0 {
			f[geom.Right] = right
		}
		if mask&maskLeft != 0 {
			f[geom.Left] = left
		}
		return
	}
	pa := e.at(idx)
	for k, to := range tos {
		dp := e.at(e.pl.PosOf[to]).Sub(pa)
		u0 := e.pot.Eval(dp)
		w := ws[k]
		for d := geom.Dir(0); d < geom.NumDirs; d++ {
			if mask&(1<<d) != 0 {
				f[d] += w * (u0 - e.pot.Eval(dp.Sub(d.Delta())))
			}
		}
	}
}

// pairCells decodes a pair id into its two cell indices and the direction
// from the first cell to the second.
func (e *fdEngine) pairCells(id int32) (a, b int32, d geom.Dir) {
	a = id / 2
	if id%2 == 0 {
		return a, a + 1, geom.Right
	}
	return a, a + int32(e.mesh.Cols), geom.Down
}

// rebuildMutw recomputes the cached mutual weight of the (in-mesh) pair id
// from the current occupants of its two cells.
func (e *fdEngine) rebuildMutw(id int32) {
	a, b, _ := e.pairCells(id)
	ca, cb := e.pl.ClusterAt[a], e.pl.ClusterAt[b]
	if ca == place.None || cb == place.None {
		e.mutw[id] = 0
		return
	}
	e.mutw[id] = e.mutualWeight(ca, cb)
}

// mutualWeight returns the combined undirected weight between two clusters
// (0 when unconnected), via binary search of the sorted adjacency. Hot
// paths read the per-pair mutw cache instead; this is the rebuild primitive.
func (e *fdEngine) mutualWeight(c1, c2 int32) float64 {
	tos, ws := e.und.Neighbors(int(c1))
	lo, hi := 0, len(tos)
	for lo < hi {
		mid := (lo + hi) / 2
		if tos[mid] < c2 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(tos) && tos[lo] == c2 {
		return ws[lo]
	}
	return 0
}

// blocked reports whether the swap of pair id is illegal on the defective
// mesh: it reaches into a reserved spare row, touches a dead cell, or would
// move a cluster onto a degraded cell it does not fit.
func (e *fdEngine) blocked(id int32) bool {
	if e.spareStart < int32(e.mesh.Rows) {
		// For both pair orientations (right, down) cell b has the larger
		// row, so only b can cross into the reserved bottom rows.
		_, b, _ := e.pairCells(id)
		if b/int32(e.mesh.Cols) >= e.spareStart {
			return true
		}
	}
	if e.defects == nil {
		return false
	}
	a, b, _ := e.pairCells(id)
	if e.defects.IsDead(int(a)) || e.defects.IsDead(int(b)) {
		return true
	}
	ca, cb := e.pl.ClusterAt[a], e.pl.ClusterAt[b]
	if ca != place.None && !clusterFits(e.p, int(ca), e.cons, e.defects.CapScale(int(b))) {
		return true
	}
	if cb != place.None && !clusterFits(e.p, int(cb), e.cons, e.defects.CapScale(int(a))) {
		return true
	}
	return false
}

// tension returns the exact swap gain (Eq. 30 corrected for mutual edges)
// for the adjacent-cell pair id: the decrease of E_s if the two cells'
// contents are exchanged. Swaps blocked by the defect map report zero.
func (e *fdEngine) tension(id int32) float64 {
	if e.blocked(id) {
		return 0
	}
	a, b, d := e.pairCells(id)
	ca, cb := e.pl.ClusterAt[a], e.pl.ClusterAt[b]
	switch {
	case ca == place.None && cb == place.None:
		return 0
	case cb == place.None:
		return e.force[int(a)*4+int(d)]
	case ca == place.None:
		return e.force[int(b)*4+int(d.Opposite())]
	default:
		t := e.force[int(a)*4+int(d)] + e.force[int(b)*4+int(d.Opposite())]
		if w := e.mutw[id]; w != 0 {
			t -= w * e.unitCorr
		}
		return t
	}
}

// beginEpoch resets the affected-cluster list for a new iteration.
func (e *fdEngine) beginEpoch() {
	e.epoch++
	e.affected = e.affected[:0]
}

// applyBatch executes the swap phase of one iteration (Alg. 3 lines 17-29)
// on the queue's top-λ prefix, re-checking each pair's tension against the
// swaps already executed in the batch.
func (e *fdEngine) applyBatch(ctx context.Context, batch []pairTension, minGain float64, stats *FDStats) {
	for i, pt := range batch {
		if i&8191 == 8191 && ctx.Err() != nil {
			break // finish the epoch bookkeeping, fail at the loop head
		}
		stats.TensionChecks++
		if e.tension(pt.id) > minGain {
			e.swapPair(pt.id)
			stats.Swaps++
		}
	}
}

func (e *fdEngine) markAffected(c int32) {
	if e.clusterMark[c] != e.epoch {
		e.clusterMark[c] = e.epoch
		e.affected = append(e.affected, c)
	}
}

// swapPair executes the swap of pair id (Alg. 3 lines 20-27): exchange the
// two cells' contents, rebuild their forces, incrementally maintain the
// forces of every connected cluster, and record affected clusters.
func (e *fdEngine) swapPair(id int32) {
	a, b, _ := e.pairCells(id)
	ca, cb := e.pl.ClusterAt[a], e.pl.ClusterAt[b]
	pa, pb := e.at(a), e.at(b)

	e.pl.SwapCores(a, b)
	e.rebuildForce(a)
	e.rebuildForce(b)
	// The swap changed the occupants of cells a and b, invalidating the
	// cached mutual weights of every pair touching either cell.
	e.pairScratch = e.pairsTouching(a, e.pairScratch[:0])
	e.pairScratch = e.pairsTouching(b, e.pairScratch)
	for _, pid := range e.pairScratch {
		e.rebuildMutw(pid)
	}

	if ca != place.None {
		e.maintainNeighbors(ca, cb, pa, pb)
		e.markAffected(ca)
	}
	if cb != place.None {
		e.maintainNeighbors(cb, ca, pb, pa)
		e.markAffected(cb)
	}
}

// maintainNeighbors applies the incremental force update for every cluster
// connected to moved (which traveled oldPos → newPos), skipping other —
// the co-swapped cluster, whose cell was fully rebuilt.
func (e *fdEngine) maintainNeighbors(moved, other int32, oldPos, newPos geom.Point) {
	tos, ws := e.und.Neighbors(int(moved))
	if e.l2sq {
		// For u_c the per-direction change (u(n)−u(n−δ)) − (u(o)−u(o−δ)) is
		// 2·(n−o)·δ: the same for every neighbour of this move.
		mx, my := newPos.X-oldPos.X, newPos.Y-oldPos.Y
		dUp, dDown := float64(-2*mx), float64(2*mx)
		dRight, dLeft := float64(2*my), float64(-2*my)
		for k, to := range tos {
			if to == other {
				continue
			}
			w := ws[k]
			pkIdx := e.pl.PosOf[to]
			mask := e.dirMask[pkIdx]
			base := int(pkIdx) * 4
			f := e.force[base : base+4 : base+4]
			if mask&maskUp != 0 {
				f[geom.Up] += w * dUp
			}
			if mask&maskDown != 0 {
				f[geom.Down] += w * dDown
			}
			if mask&maskRight != 0 {
				f[geom.Right] += w * dRight
			}
			if mask&maskLeft != 0 {
				f[geom.Left] += w * dLeft
			}
			e.markAffected(to)
		}
		return
	}
	for k, to := range tos {
		if to == other {
			continue
		}
		w := ws[k]
		pkIdx := e.pl.PosOf[to]
		pk := e.at(pkIdx)
		mask := e.dirMask[pkIdx]
		base := int(pkIdx) * 4
		oldDP := oldPos.Sub(pk)
		newDP := newPos.Sub(pk)
		uOld := e.pot.Eval(oldDP)
		uNew := e.pot.Eval(newDP)
		for d := geom.Dir(0); d < geom.NumDirs; d++ {
			if mask&(1<<d) == 0 {
				continue
			}
			dd := d.Delta()
			e.force[base+int(d)] += w * ((uNew - e.pot.Eval(newDP.Sub(dd))) -
				(uOld - e.pot.Eval(oldDP.Sub(dd))))
		}
		e.markAffected(to)
	}
}

// pairsTouching appends the (up to four) pair ids whose cells include the
// given cell index.
func (e *fdEngine) pairsTouching(idx int32, out []int32) []int32 {
	cols := int32(e.mesh.Cols)
	r, c := idx/cols, idx%cols
	if c < cols-1 {
		out = append(out, idx*2)
	}
	if c > 0 {
		out = append(out, (idx-1)*2)
	}
	if r < int32(e.mesh.Rows)-1 {
		out = append(out, idx*2+1)
	}
	if r > 0 {
		out = append(out, (idx-int32(e.mesh.Cols))*2+1)
	}
	return out
}

// initialQueue builds the first tension queue (Alg. 3 lines 6-13): all
// adjacent pairs with positive tension, fully sorted by queueCmp. The scan
// parallelizes per cell chunk; the total-order sort makes the result
// independent of the worker count.
func (e *fdEngine) initialQueue(workers int) []pairTension {
	cores := e.mesh.Cores()
	parts := make([][]pairTension, (cores+buildChunk-1)/buildChunk)
	buildChunks(workers, cores, func(ci, lo, hi int) {
		var scratch [4]int32
		for idx := int32(lo); idx < int32(hi); idx++ {
			for _, id := range e.pairsTouching(idx, scratch[:0]) {
				if id/2 != idx {
					continue // enumerate each pair from its first cell only
				}
				if t := e.tension(id); t > 0 {
					parts[ci] = append(parts[ci], pairTension{id: id, tension: t})
				}
			}
		}
	})
	queue := slices.Concat(parts...)
	sortQueue(queue)
	return queue
}

// nextQueue implements Alg. 3 lines 30-40: start from the current queue,
// add all pairs touching affected clusters, recompute every tension, drop
// non-positive pairs and sort the result.
func (e *fdEngine) nextQueue(queue []pairTension, minGain float64, checks *int64) []pairTension {
	// Mark pairs already queued (dedupe epoch shared with pairMark).
	e.epoch++ // fresh epoch for pair marks; cluster marks are stale now
	ids := e.ids[:0]
	for _, pt := range queue {
		if e.pairMark[pt.id] != e.epoch {
			e.pairMark[pt.id] = e.epoch
			ids = append(ids, pt.id)
		}
	}
	var scratch [4]int32
	for _, c := range e.affected {
		for _, id := range e.pairsTouching(e.pl.PosOf[c], scratch[:0]) {
			if e.pairMark[id] != e.epoch {
				e.pairMark[id] = e.epoch
				ids = append(ids, id)
			}
		}
	}
	e.ids = ids[:0] // keep the grown buffer for the next iteration
	*checks += int64(len(ids))

	next := queue[:0]
	for _, id := range ids {
		if t := e.tension(id); t > minGain {
			next = append(next, pairTension{id: id, tension: t})
		}
	}
	sortQueue(next)
	return next
}
