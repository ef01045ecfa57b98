package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"m2m/internal/geom"
	"m2m/internal/graph"
	"m2m/internal/specfile"
	"m2m/internal/topology"
)

// generateGolden is the SHA-256 of every case of TestGenerateByteIdentity,
// in order: a header line, then the specfile.Format output or the error
// text. A change to it means Generate draws different destinations,
// sources or weights, which moves the simulated energy of every workload.
const generateGolden = "7ffbe8c070954b0206bc34ed61b2e97d8ba9821ca78421a9f4fa5f4fd0bb4ad4"

// TestGenerateByteIdentity pins Generate's output byte for byte over hop
// limits (uniform, 1, the evaluation's 4, and beyond the diameter),
// dispersions and network shapes, plus destinations that cannot reach as
// many sources as asked for.
func TestGenerateByteIdentity(t *testing.T) {
	_, random := topology.Scaled(300, 1)
	_, clustered := topology.ScaledClustered(300, 2)
	nets := []struct {
		name string
		g    *graph.Undirected
	}{
		{"random", random},
		{"clustered", clustered},
		{"grid", topology.Grid(15, 15, 10).ConnectivityGraph(15)},
	}
	h := sha256.New()
	record := func(name string, cfg Config, g *graph.Undirected) {
		fmt.Fprintf(h, "# %s %+v\n", name, cfg)
		specs, err := Generate(g, cfg)
		if err != nil {
			fmt.Fprintf(h, "error: %v\n", err)
			return
		}
		var buf bytes.Buffer
		if err := specfile.Format(&buf, specs); err != nil {
			t.Fatalf("%s %+v: format: %v", name, cfg, err)
		}
		h.Write(buf.Bytes())
	}
	for _, nw := range nets {
		for _, maxHops := range []int{0, 1, 4, 50} {
			for _, disp := range []float64{0, 0.9, 1} {
				for seed := int64(1); seed <= 2; seed++ {
					record(nw.name, Config{NumDests: 12, SourcesPerDest: 30, Dispersion: disp, MaxHops: maxHops, Seed: seed}, nw.g)
				}
			}
		}
	}
	// Far-apart clusters without the connectivity repair: some
	// destinations reach fewer nodes than asked for, and the error names
	// how many they do reach.
	split := topology.Clustered(120, geom.NewRect(0, 0, 2000, 2000), 6, 15, 3).ConnectivityGraph(50)
	for _, maxHops := range []int{0, 1, 4} {
		for _, spd := range []int{5, 25} {
			record("split", Config{NumDests: 40, SourcesPerDest: spd, Dispersion: 0.9, MaxHops: maxHops, Seed: 4}, split)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generateGolden {
		t.Errorf("Generate output hash = %s, want %s", got, generateGolden)
	}
}
