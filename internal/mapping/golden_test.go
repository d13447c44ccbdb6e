package mapping

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

var update = flag.Bool("update", false, "rewrite the FD golden file under testdata/golden")

// fdGolden is one absolute FD pin: what Finetune produced from a fixed
// initial placement. Energies are stored as their exact float64 bit
// patterns, so any change in summation order or rounding shows up.
type fdGolden struct {
	Case              string `json:"case"`
	PlacementFNV      string `json:"placement_fnv"`
	Iterations        int    `json:"iterations"`
	Swaps             int64  `json:"swaps"`
	TensionChecks     int64  `json:"tension_checks"`
	Converged         bool   `json:"converged"`
	InitialEnergyBits string `json:"initial_energy_bits"`
	FinalEnergyBits   string `json:"final_energy_bits"`
}

const goldenFDPath = "testdata/golden/fd.json"

// goldenFDMaxIterations caps every golden run so the whole table stays fast.
const goldenFDMaxIterations = 200

// placementFNV hashes PosOf as little-endian int32s with 64-bit FNV-1a.
func placementFNV(pl *place.Placement) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, idx := range pl.PosOf {
		binary.LittleEndian.PutUint32(buf[:], uint32(idx))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func floatBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// goldenFDCases runs every pinned configuration: {l1, l1sq, l2sq, energy} ×
// {HSC, Random seed 1} on MobileNet (36×36) and DNN_65K (4×4).
func goldenFDCases(t *testing.T) []fdGolden {
	t.Helper()
	nets := []struct {
		net  func() *snn.Net
		side int
	}{
		{snn.MobileNet, 36},
		{snn.DNN65K, 4},
	}
	var out []fdGolden
	for _, n := range nets {
		net := n.net()
		p, err := pcn.Expand(net, pcn.DefaultPartition())
		if err != nil {
			t.Fatal(err)
		}
		mesh := hw.MustMesh(n.side, n.side)
		initials := []struct {
			name string
			make func() (*place.Placement, error)
		}{
			{"hsc", func() (*place.Placement, error) { return InitialPlacement(p, mesh, curve.Hilbert{}) }},
			{"random1", func() (*place.Placement, error) {
				return place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(1)))
			}},
		}
		for _, init := range initials {
			for _, potName := range []string{"l1", "l1sq", "l2sq", "energy"} {
				pot, err := PotentialByName(potName, hw.DefaultCostModel())
				if err != nil {
					t.Fatal(err)
				}
				pl, err := init.make()
				if err != nil {
					t.Fatal(err)
				}
				stats, err := Finetune(p, pl, FDConfig{Potential: pot, MaxIterations: goldenFDMaxIterations})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, fdGolden{
					Case:              fmt.Sprintf("%s/%s/%s", net.Name, init.name, potName),
					PlacementFNV:      placementFNV(pl),
					Iterations:        stats.Iterations,
					Swaps:             stats.Swaps,
					TensionChecks:     stats.TensionChecks,
					Converged:         stats.Converged,
					InitialEnergyBits: floatBits(stats.InitialEnergy),
					FinalEnergyBits:   floatBits(stats.FinalEnergy),
				})
			}
		}
	}
	return out
}

// TestFDGolden pins Finetune's absolute output — placement hash, iteration,
// swap and tension-check counts, and the exact energy bits — for every
// potential from HSC and Random starts. Regenerate only deliberately:
//
//	go test ./internal/mapping -run FDGolden -update
func TestFDGolden(t *testing.T) {
	got := goldenFDCases(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFDPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFDPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFDPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []fdGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden cases computed, %d pinned", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n got  %+v\n want %+v", want[i].Case, got[i], want[i])
		}
	}
}
