package main

import (
	"fmt"
	"math"

	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/noc"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// relTol is the relative tolerance between a metric the program reports and
// the benchmark's own recomputation of it. The two sum the same terms in a
// different order, so they agree to rounding error, far inside this bound.
const relTol = 1e-9

func near(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(want), 1e-300)
}

// checkFD checks that FD fine-tuning ran to convergence and never raised
// the system energy (Eq. 31).
func checkFD(st mapping.FDStats) []string {
	var out []string
	if !st.Converged {
		out = append(out, fmt.Sprintf("fd: stopped after %d iterations without converging", st.Iterations))
	}
	if !(st.FinalEnergy <= st.InitialEnergy) {
		out = append(out, fmt.Sprintf("fd: final energy %g above initial %g", st.FinalEnergy, st.InitialEnergy))
	}
	return out
}

// quality is the benchmark's own computation of Eqs. 9–12, plus bboxWork:
// Σ over edges of the routers in the edge's bounding box, the work of the
// exact congestion grid.
type quality struct {
	energy, avgLatency, maxLatency, avgCongestion float64
	bboxWork                                      int64
}

// recompute prices every edge of the PCN's CSR with the cost model, reading
// core coordinates straight from the placement's cluster → core table.
func recompute(p *pcn.PCN, pl *place.Placement, cost hw.CostModel) quality {
	var q quality
	var weight, latency float64
	cols := int32(pl.Mesh.Cols)
	for c := 0; c < p.NumClusters; c++ {
		sx, sy := pl.PosOf[c]/cols, pl.PosOf[c]%cols
		for e := p.OutOff[c]; e < p.OutOff[c+1]; e++ {
			to := pl.PosOf[p.OutTo[e]]
			dx, dy := abs32(to/cols-sx), abs32(to%cols-sy)
			q.bboxWork += int64(dx+1) * int64(dy+1)
			hops := float64(dx + dy)
			w := p.OutW[e]
			lat := (hops+1)*cost.RouterLatency + hops*cost.WireLatency
			q.energy += w * ((hops+1)*cost.RouterEnergy + hops*cost.WireEnergy)
			latency += w * lat
			weight += w
			q.maxLatency = math.Max(q.maxLatency, lat)
			// A spike over h links passes h+1 routers (Eq. 12).
			q.avgCongestion += w * (hops + 1)
		}
	}
	if weight > 0 {
		q.avgLatency = latency / weight
	}
	q.avgCongestion /= float64(pl.Mesh.Cores())
	return q
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// checkPlacement checks that the placement is a valid injective mapping
// and that the reported Summary agrees with the benchmark's recomputation.
func checkPlacement(p *pcn.PCN, pl *place.Placement, s metrics.Summary, cost hw.CostModel) []string {
	if err := pl.Validate(); err != nil {
		// The recomputation below indexes cores through the placement; an
		// invalid one has nothing further to check.
		return []string{"placement: " + err.Error()}
	}
	q := recompute(p, pl, cost)
	var out []string
	for _, m := range []struct {
		name      string
		got, want float64
	}{
		{"energy", s.Energy, q.energy},
		{"avg_latency", s.AvgLatency, q.avgLatency},
		{"max_latency", s.MaxLatency, q.maxLatency},
		{"avg_congestion", s.AvgCongestion, q.avgCongestion},
	} {
		if !near(m.got, m.want) {
			out = append(out, fmt.Sprintf("summary: %s %v, recomputed %v", m.name, m.got, m.want))
		}
	}
	return out
}

// checkGrid checks the congestion grid against the Summary: every spike
// over h links adds h+1 to the grid, so the cells sum to AvgCongestion ×
// cores, and the hottest cell is MaxCongestion.
func checkGrid(grid []float64, s metrics.Summary, mesh hw.Mesh) []string {
	var sum, hottest float64
	for _, v := range grid {
		sum += v
		hottest = math.Max(hottest, v)
	}
	var out []string
	if want := s.AvgCongestion * float64(mesh.Cores()); !near(sum, want) {
		out = append(out, fmt.Sprintf("congestion grid: cells sum to %v, want AvgCongestion × cores = %v", sum, want))
	}
	if !near(hottest, s.MaxCongestion) {
		out = append(out, fmt.Sprintf("congestion grid: hottest cell %v, Summary.MaxCongestion %v", hottest, s.MaxCongestion))
	}
	return out
}

// checkSim checks that the NoC replay conserved spikes, dropped none on the
// pristine mesh, and injected exactly the spikes the budget asks for: each
// edge injects max(1, round(w × spikesPerUnit)).
func checkSim(p *pcn.PCN, r noc.Result, spikesPerUnit float64) []string {
	var want int64
	for _, w := range p.OutW {
		want += max(1, int64(w*spikesPerUnit+0.5))
	}
	var out []string
	if r.Injected != r.Delivered+r.Dropped {
		out = append(out, fmt.Sprintf("noc: injected %d != delivered %d + dropped %d", r.Injected, r.Delivered, r.Dropped))
	}
	if r.Dropped != 0 {
		out = append(out, fmt.Sprintf("noc: %d spikes dropped on a pristine mesh", r.Dropped))
	}
	if r.Injected != want {
		out = append(out, fmt.Sprintf("noc: injected %d spikes, the budget asks for %d", r.Injected, want))
	}
	return out
}
