package noc

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"snnmap/internal/obs"
)

// This file implements the event-driven engine's one driver. The mesh is
// partitioned into contiguous row strips; the coordinator runs strip 0 on
// the caller's goroutine and every other strip on a worker goroutine, with
// a cycle gate (an atomic generation counter plus an atomic done count)
// separating the two phases of every cycle — Booksim-style parallel
// discrete-event simulation specialized to a deterministic-cycle mesh.
//
// Row strips make ownership trivial under row-major indexing: strip k owns
// the contiguous router range [lo, hi), so the concatenation of per-strip
// candidate lists in strip order IS the reference's ascending-router
// service order. Every queue is read and written only by its owning strip:
//
//   - Pushes into a strip's queues are performed by the owner — flits
//     arriving from a neighboring strip are pre-decided by the source
//     strip during collect (with unbounded queues the move/drop decision
//     depends only on the flit and static state) and shipped through a
//     per-(strip-pair, direction) exchange buffer; the owner pushes them
//     at their exact global-order position.
//   - Pops of a strip's queues are performed by the owner — a
//     boundary-crossing candidate keeps a marker in the source strip's own
//     candidate list, so the pop happens at the same position relative to
//     same-cycle pushes as in the reference (MaxQueueLen is sensitive to
//     that interleaving).
//
// Cross-strip candidates exist only on Up/Down ports at strip edges
// (East/West neighbors share the row, hence the strip). A ship from strip
// k to k+1 sorts before all of k+1's own candidates (its source router
// index is smaller), and a ship from k to k-1 sorts after all of k-1's own
// candidates — so the merged apply order per strip is simply
// [ships-from-above, own candidates, ships-from-below].
//
// Bounded queues (QueueCap > 0) are the one case that cannot be
// pre-decided: whether a flit moves or stalls depends on the destination
// queue's occupancy at its exact global position, and stall chains can
// zigzag across strip boundaries. For that configuration the coordinator
// runs the service-apply phase itself while the workers wait at the gate
// (injection and the collect/deliver scan still fan out), trading
// apply-phase parallelism for the bit-identity contract.

// accum collects one strip's share of the running tallies. All fields are
// either sums or maxes, so merging per-strip accumulators in any order
// reproduces the sequential engine's totals exactly.
type accum struct {
	delivered  int64 // spikes delivered to their destination core
	dropped    int64 // spikes dropped during the run (injection-time + in-network)
	injections int64 // spikes that entered the network (successful queue pushes)
	exited     int64 // resident spikes that left: deliveries + in-network drops
	latencySum int64
	wire       int64
	stalls     int64
	injStalls  int64
	detours    int64 // sticky detour-mode entries at blocked ports
	maxLatency int
	maxQueue   int
}

// stripCand kinds: how the owning strip applies one collected candidate.
const (
	candIntra uint8 = iota // destination router in this strip: full apply
	candShip               // pre-decided boundary move: pop here, push shipped
	candDrop               // pre-decided boundary drop: pop + account here
)

// stripCand is one queue head eligible to move this cycle, from the
// perspective of the strip that owns the source queue.
type stripCand struct {
	src  int32 // source queue index in simState.queues
	to   int32 // destination router (candIntra only)
	kind uint8
}

// ship is one pre-decided boundary crossing: the flit (already advanced by
// its hop) and the destination queue the owning strip must push it into.
type ship struct {
	dq int32 // destination queue index in simState.queues
	f  flit
}

// strip owns the routers in [lo, hi): their queues, their injection
// trains, and their occupancy bitset. With one shard a single strip spans
// the whole mesh.
type strip struct {
	s        *simState
	lo, hi   int      // owned router range [lo, hi)
	trains   []train  // injection trains with src in [lo, hi), original order
	occ      []uint64 // bit router-lo set: the router may hold flits
	cands    []stripCand
	shipUp   []ship // pushes into the strip above (smaller router indices)
	shipDown []ship // pushes into the strip below
	acc      accum
}

func newStrip(s *simState, lo, hi int) *strip {
	return &strip{s: s, lo: lo, hi: hi, occ: make([]uint64, (hi-lo+63)/64)}
}

// markActive records that router idx (owned by this strip) may hold flits.
func (st *strip) markActive(idx int) {
	i := idx - st.lo
	st.occ[i>>6] |= 1 << (i & 63)
}

// inject runs one injection wave over this strip's trains: due spikes enter
// their source router's queues directly, a full source queue defers the
// injection, and exhausted trains are compacted out in the same
// order-preserving pass.
func (st *strip) inject(cycle int) {
	s := st.s
	w := 0
	for ti := range st.trains {
		t := st.trains[ti]
		f := flit{dst: t.dst, injected: int32(cycle), yx: s.orientation(t.src, t.dst)}
		port, drop, blocked := s.routePort(int(t.src), f)
		if blocked && !drop {
			f.detour = uint8(s.detourHops)
			st.acc.detours++
		}
		if drop {
			t.count--
			st.acc.dropped++
			if t.count > 0 {
				st.trains[w] = t
				w++
			}
			continue
		}
		q := &s.queues[int(t.src)*5+port]
		if s.cfg.QueueCap > 0 && q.len() >= s.cfg.QueueCap {
			st.acc.injStalls++
			st.trains[w] = t
			w++
			continue
		}
		t.count--
		q.push(f)
		if q.len() > st.acc.maxQueue {
			st.acc.maxQueue = q.len()
		}
		s.res.RouterTraversals[t.src]++
		st.acc.injections++
		st.markActive(int(t.src))
		if t.count > 0 {
			st.trains[w] = t
			w++
		}
	}
	st.trains = st.trains[:w]
}

// deliver pops one flit off a local queue and accounts its delivery into
// the strip's accumulator.
func (st *strip) deliver(q *queue, cycle int) {
	f := q.pop()
	st.acc.delivered++
	st.acc.exited++
	lat := int(int32(cycle) - f.injected + 1)
	st.acc.latencySum += int64(lat)
	if lat > st.acc.maxLatency {
		st.acc.maxLatency = lat
	}
}

// collect walks this strip's occupancy bitset in ascending router order,
// delivering one flit per local queue and gathering one candidate per
// occupied output port — the strip's slice of the reference's global
// service order. A router whose five queues are all empty has its bit
// cleared; every push sets its router's bit again.
//
// With preDecide set (sharded, unbounded queues), candidates whose
// destination lies outside [lo, hi) are resolved immediately: the move or
// drop depends only on the flit and static state, never on queue
// occupancy, so the outcome is identical to deciding it at apply time. A
// moving flit is advanced by its hop and appended to the exchange buffer
// toward the owning strip; the local candidate list keeps a pop marker at
// the candidate's position.
func (st *strip) collect(cycle int, preDecide bool) {
	s := st.s
	st.cands = st.cands[:0]
	st.shipUp, st.shipDown = st.shipUp[:0], st.shipDown[:0]
	for wi, word := range st.occ {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &= word - 1
			idx := st.lo + wi<<6 + bit
			base := idx * 5
			busy := false
			for port := 0; port < 5; port++ {
				q := &s.queues[base+port]
				if q.len() == 0 {
					continue
				}
				busy = true
				if port == local {
					st.deliver(q, cycle)
					continue
				}
				to := s.neighbor(idx, port)
				if !preDecide || (to >= st.lo && to < st.hi) {
					st.cands = append(st.cands, stripCand{src: int32(base + port), to: int32(to), kind: candIntra})
					continue
				}
				st.preDecide(cycle, base+port, to)
			}
			if !busy {
				st.occ[wi] &^= 1 << bit
			}
		}
	}
}

// preDecide resolves one candidate whose destination router lies in a
// neighboring strip: a drop is accounted here at apply time, a move ships
// the advanced flit to the owner.
func (st *strip) preDecide(cycle, src, to int) {
	s := st.s
	f := s.queues[src].peek()
	if s.defects != nil && (f.hops >= s.maxHops || cycle-int(f.injected) > s.cfg.WatchdogCycles) {
		st.cands = append(st.cands, stripCand{src: int32(src), kind: candDrop})
		return
	}
	outPort, drop, blocked := s.routePort(to, f)
	if drop {
		st.cands = append(st.cands, stripCand{src: int32(src), kind: candDrop})
		return
	}
	if blocked {
		f.detour = uint8(s.detourHops)
		st.acc.detours++
	} else if f.detour > 0 {
		f.detour--
	}
	f.hops++
	sh := ship{dq: int32(to*5 + outPort), f: f}
	if to < st.lo {
		st.shipUp = append(st.shipUp, sh)
	} else {
		st.shipDown = append(st.shipDown, sh)
	}
	st.cands = append(st.cands, stripCand{src: int32(src), kind: candShip})
}

// applyCand services one candidate whose destination router is owned by
// dst: the flit is dropped (detour TTL or fault), stalled (bounded full
// queue), or moved one hop. In the sharded bounded-queue fallback the
// coordinator calls this across strips; src and dst queues then may belong
// to different strips, which is safe because the workers are waiting at the
// cycle gate.
func (s *simState) applyCand(c stripCand, cycle int, dst *strip) {
	src := &s.queues[c.src]
	f := src.peek()
	if s.defects != nil && (f.hops >= s.maxHops || cycle-int(f.injected) > s.cfg.WatchdogCycles) {
		// Detour budget exhausted, or the spike has been in flight
		// longer than the watchdog window (stuck in a traffic jam
		// against a fault boundary, where deep queues make the hop
		// TTL glacial): the destination is effectively unreachable;
		// abandon the spike at this router. The age cap guarantees
		// faulty-mesh runs terminate whenever queues keep being
		// serviced; the watchdog covers the remaining case of a full
		// service stall (true deadlock).
		src.pop()
		dst.acc.dropped++
		dst.acc.exited++
		return
	}
	port, drop, blocked := s.routePort(int(c.to), f)
	if drop {
		src.pop()
		dst.acc.dropped++
		dst.acc.exited++
		return
	}
	q := &s.queues[int(c.to)*5+port]
	if s.cfg.QueueCap > 0 && q.len() >= s.cfg.QueueCap {
		dst.acc.stalls++
		return
	}
	src.pop()
	if blocked {
		f.detour = uint8(s.detourHops)
		dst.acc.detours++
	} else if f.detour > 0 {
		f.detour--
	}
	f.hops++
	dst.acc.wire++
	q.push(f)
	if q.len() > dst.acc.maxQueue {
		dst.acc.maxQueue = q.len()
	}
	s.res.RouterTraversals[c.to]++
	dst.markActive(int(c.to))
}

// applyShip pushes one pre-decided incoming flit into this strip's queues.
func (st *strip) applyShip(sh ship) {
	s := st.s
	q := &s.queues[sh.dq]
	q.push(sh.f)
	if q.len() > st.acc.maxQueue {
		st.acc.maxQueue = q.len()
	}
	to := int(sh.dq) / 5
	s.res.RouterTraversals[to]++
	st.markActive(to)
}

// apply services this strip's merged worklist for one cycle in global
// candidate order: pushes shipped from the strip above (all of which sort
// before this strip's own candidates), then the strip's own candidates,
// then pushes shipped from the strip below.
func (st *strip) apply(cycle int, fromAbove, fromBelow []ship) {
	for i := range fromAbove {
		st.applyShip(fromAbove[i])
	}
	for _, c := range st.cands {
		switch c.kind {
		case candIntra:
			st.s.applyCand(c, cycle, st)
		case candShip:
			st.s.queues[c.src].pop()
			st.acc.wire++
		case candDrop:
			st.s.queues[c.src].pop()
			st.acc.dropped++
			st.acc.exited++
		}
	}
	for i := range fromBelow {
		st.applyShip(fromBelow[i])
	}
}

// mergeStrips folds the strips' accumulators into s.res (on top of the
// injection-time accounting newSimState left there) and returns it. Sums
// and maxes only, so the merge order cannot change any field.
func (s *simState) mergeStrips(strips ...*strip) Result {
	for _, st := range strips {
		s.res.Delivered += st.acc.delivered
		s.res.Dropped += st.acc.dropped
		s.res.WireTraversals += st.acc.wire
		s.res.Stalls += st.acc.stalls
		s.res.InjectionStalls += st.acc.injStalls
		s.res.Stats.Detours += st.acc.detours
		if st.acc.maxLatency > s.res.MaxLatencyCycles {
			s.res.MaxLatencyCycles = st.acc.maxLatency
		}
		if st.acc.maxQueue > s.res.MaxQueueLen {
			s.res.MaxQueueLen = st.acc.maxQueue
		}
		s.latencySum += st.acc.latencySum
		s.inFlight += st.acc.injections - st.acc.exited
		s.injections += st.acc.injections
	}
	return s.res
}

// ClampShards bounds a requested shard count to what a mesh supports: at
// least 1 and at most rows (the sharded engine needs one row strip per
// shard). CLIs use it to turn a machine-wide default like GOMAXPROCS into
// a valid Config.Shards for any mesh.
func ClampShards(n, rows int) int {
	if n < 1 {
		return 1
	}
	if n > rows {
		return rows
	}
	return n
}

// Worker phases, published through the cycle gate.
const (
	phaseCollect uint8 = iota // inject (when due) + collect/deliver
	phaseApply                // service the merged candidate order
	phaseExit                 // return: the run is over
)

type phaseCmd struct {
	cycle  int
	phase  uint8
	inject bool
}

// gateSpins bounds how often a gate waiter re-checks the counter, yielding
// with runtime.Gosched between checks, before it parks. A phase is tens of
// microseconds of work and a park costs a futex wake-up of similar size, so
// the spin is sized to outlast a typical strip imbalance: on the MobileNet
// replay at 2 shards on a 2-core x86 VM, 1000 spins park on ~0.3 % of waits
// against ~5 % at 100, and Simulate runs about a quarter faster. Parking
// keeps a waiter from holding a P that the goroutine it waits for needs
// (GOMAXPROCS below the shard count).
const gateSpins = 1000

// gate is a monotonic counter that goroutines wait on to reach a target.
// All writes made before inc happen before the return of any wait that
// observes the new count.
type gate struct {
	n      atomic.Uint64
	parked atomic.Int32
	mu     sync.Mutex
	cond   *sync.Cond
}

func newGate() *gate {
	g := &gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) inc() {
	g.n.Add(1)
	// A parking waiter bumps parked before its last check of n, and both
	// are sequentially consistent: either that check sees the new n, or
	// this load sees the waiter and wakes it.
	if g.parked.Load() > 0 {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

func (g *gate) wait(target uint64) {
	for i := 0; i < gateSpins; i++ {
		if g.n.Load() >= target {
			return
		}
		runtime.Gosched()
	}
	g.mu.Lock()
	g.parked.Add(1)
	for g.n.Load() < target {
		g.cond.Wait()
	}
	g.parked.Add(-1)
	g.mu.Unlock()
}

// simulateSharded is the event-driven engine's one driver: it owns the
// cycle loop (limits, watchdog, cancellation, termination and idle
// fast-forward, all computed from merged per-strip tallies) and runs the
// strips through the two phases of each cycle: strip 0 on the caller's
// goroutine, strips 1..Shards-1 on one worker goroutine each, which exit
// before it returns.
func simulateSharded(ctx context.Context, s *simState) (Result, error) {
	cfg := s.cfg
	shards := cfg.Shards

	// Partition rows into contiguous strips, as evenly as possible.
	strips := make([]*strip, shards)
	rowToStrip := make([]int, s.mesh.Rows)
	rowsPer, rem := s.mesh.Rows/shards, s.mesh.Rows%shards
	r0 := 0
	for i := range strips {
		rows := rowsPer
		if i < rem {
			rows++
		}
		strips[i] = newStrip(s, r0*s.mesh.Cols, (r0+rows)*s.mesh.Cols)
		for r := r0; r < r0+rows; r++ {
			rowToStrip[r] = i
		}
		r0 += rows
	}
	// Distribute the injection schedule by source strip; relative order is
	// preserved, so every source queue sees the reference's push order.
	for _, t := range s.trains {
		st := strips[rowToStrip[int(t.src)/s.mesh.Cols]]
		st.trains = append(st.trains, t)
	}
	s.trains = nil

	// With bounded queues, stall decisions depend on destination-queue
	// occupancy at the candidate's exact global position, and stall chains
	// can cross strip boundaries in both directions — the coordinator
	// applies those sequentially instead. A single strip has no boundary,
	// so it always applies its own candidates.
	parallelApply := cfg.QueueCap == 0 || shards == 1

	work := func(i int, cmd phaseCmd) {
		st := strips[i]
		switch cmd.phase {
		case phaseCollect:
			if cmd.inject {
				st.inject(cmd.cycle)
			}
			st.collect(cmd.cycle, parallelApply)
		case phaseApply:
			var above, below []ship
			if i > 0 {
				above = strips[i-1].shipDown
			}
			if i < len(strips)-1 {
				below = strips[i+1].shipUp
			}
			st.apply(cmd.cycle, above, below)
		}
	}
	runPhase := func(cmd phaseCmd) { work(0, cmd) }
	if shards > 1 {
		// The cycle gate: the coordinator publishes cmd, bumps start, runs
		// strip 0, then waits until done counts every worker's finish.
		// Workers read cmd only after start passes their generation, and
		// the coordinator rewrites it only after done, so cmd needs no
		// lock; the strips' state is handed over the same way.
		start, done := newGate(), newGate()
		var cmd phaseCmd
		var workers sync.WaitGroup
		workers.Add(shards - 1)
		for i := 1; i < shards; i++ {
			go func() {
				defer workers.Done()
				for gen := uint64(1); ; gen++ {
					start.wait(gen)
					c := cmd
					if c.phase == phaseExit {
						return
					}
					work(i, c)
					done.inc()
				}
			}()
		}
		var phases uint64
		defer func() {
			cmd = phaseCmd{phase: phaseExit}
			start.inc()
			workers.Wait()
		}()
		runPhase = func(c phaseCmd) {
			cmd = c
			start.inc()
			work(0, c)
			phases++
			done.wait(phases * uint64(shards-1))
		}
	}
	pendingTrains := func() int {
		n := 0
		for _, st := range strips {
			n += len(st.trains)
		}
		return n
	}

	// Progress watchdog state: progress means an injection, delivery or
	// drop — wire movement alone does not count, so a spike orbiting an
	// unreachable destination forever is detected, not just a full stop.
	lastProgress := int64(-1)
	lastProgressCycle := 0
	// ffSkipped counts idle cycles jumped by fast-forward (telemetry only;
	// never part of Result — the reference oracle has no fast-forward).
	var ffSkipped int64

	for cycle := 0; ; cycle++ {
		// Merged tallies as of the end of the previous cycle (workers are
		// waiting at the gate, so reads are safe).
		var injections, delivered, dropped, entered, exited int64
		for _, st := range strips {
			injections += st.acc.injections
			delivered += st.acc.delivered
			dropped += st.acc.dropped
			entered += st.acc.injections
			exited += st.acc.exited
		}
		inFlight := entered - exited
		dropped += s.res.Dropped // injection-time setup drops
		if cycle > cfg.MaxCycles {
			return s.mergeStrips(strips...), fmt.Errorf("noc: exceeded MaxCycles=%d with %d spikes in flight: %w", cfg.MaxCycles, inFlight, ErrLivelock)
		}
		if cycle&2047 == 0 && ctx.Err() != nil {
			return s.mergeStrips(strips...), fmt.Errorf("noc: %v after %d cycles: %w", ctx.Err(), cycle, ErrCanceled)
		}
		if progress := injections + delivered + dropped; progress != lastProgress {
			lastProgress = progress
			lastProgressCycle = cycle
		} else if cycle-lastProgressCycle > cfg.WatchdogCycles {
			return s.mergeStrips(strips...), fmt.Errorf("noc: no forward progress for %d cycles with %d spikes in flight (delivered %d, dropped %d): %w",
				cfg.WatchdogCycles, inFlight, delivered, dropped, ErrLivelock)
		}
		if cfg.Obs.Enabled() && cycle&4095 == 0 {
			cfg.Obs.Progress("noc.sim", delivered+dropped, s.res.Injected)
		}

		doInject := pendingTrains() > 0 && cycle%cfg.InjectionInterval == 0
		runPhase(phaseCmd{cycle: cycle, phase: phaseCollect, inject: doInject})

		// Termination and fast-forward use the in-flight count as the
		// sequential engine sees it at this point: after injection but
		// before this cycle's deliveries — phase-1 deliveries are excluded
		// by using the pre-phase exit count. (If it is zero, no queue held
		// a flit, so the collect pass delivered nothing and found no
		// candidates; the phases agree exactly.)
		var enteredNow int64
		for _, st := range strips {
			enteredNow += st.acc.injections
		}
		afterInject := enteredNow - exited
		if afterInject == 0 && pendingTrains() == 0 {
			s.res.Cycles = cycle
			break
		}
		if afterInject == 0 {
			// Idle fast-forward to the next injection wave — the minimum
			// next-event cycle across strips, which under a shared
			// injection interval is the same wave for every strip. Capped
			// at MaxCycles+1 so a wave scheduled past the cycle limit
			// still fails exactly where the reference fails.
			next := (cycle/cfg.InjectionInterval + 1) * cfg.InjectionInterval
			if next > cfg.MaxCycles+1 {
				next = cfg.MaxCycles + 1
			}
			if next-1 > cycle {
				ffSkipped += int64(next - 1 - cycle)
				cycle = next - 1
			}
			continue
		}

		if parallelApply {
			runPhase(phaseCmd{cycle: cycle, phase: phaseApply})
		} else {
			// Sequential fallback: the per-strip candidate lists
			// concatenated in strip order are exactly the reference's
			// ascending-router candidate order.
			for _, st := range strips {
				for _, c := range st.cands {
					s.applyCand(c, cycle, strips[rowToStrip[int(c.to)/s.mesh.Cols]])
				}
			}
		}
	}

	s.mergeStrips(strips...)
	if cfg.Obs.Enabled() {
		cfg.Obs.Counter("noc.fastforward", obs.KV{K: "skipped_cycles", V: float64(ffSkipped)})
		emitShardCounters(cfg.Obs, strips...)
		cfg.Obs.Progress("noc.sim", s.res.Delivered+s.res.Dropped, s.res.Injected)
	}
	return s.finish(), nil
}
