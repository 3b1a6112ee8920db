package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"flashwalker/internal/graph"
)

// graphDigest is a SHA-256 over the CSR arrays, each prefixed by its
// length.
func graphDigest(g *graph.Graph) string {
	h := sha256.New()
	for _, s := range []any{g.Offsets, g.Edges, g.Weights, g.CumWeights} {
		n := 0
		switch s := s.(type) {
		case []uint64:
			n = len(s)
		case []float32:
			n = len(s)
		}
		binary.Write(h, binary.LittleEndian, uint64(n)) // hash writes never fail
		binary.Write(h, binary.LittleEndian, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDatasetGraphDigests pins every generated dataset bit for bit. It
// calls Gen, not the cached Graph, so each run (and each -cpu setting)
// generates afresh. The four largest are skipped under -short.
func TestDatasetGraphDigests(t *testing.T) {
	want := map[string]string{
		"TT-S":  "c15d05bfe0d6596b27a254f7ac6b9c03ecaf6bb4bee81928634d54d6f21b14a2",
		"FS-S":  "bcf3cb12efef4d327e0b8ddc14b8433064e8eb7a3006ad3e1221cae13c99d66b",
		"CW-S":  "766d33b0331a75faac898c35119746400c22c383c1c999f10c2c69a1a8246fe2",
		"R2B-S": "8117966a85006020c1f27680264d5dad6867eeb509f49578ef409cd0b3e3fc7f",
		"R8B-S": "ebe534abb205daebe5eb65c6638597c4b2e004ff2f8204e24d6a121b1f1b0c53",
		"MB-S":  "73e6cbb779653eba4ab276f49f898e09eff7454d7f6984fc35f704e95243c7af",
	}
	large := map[string]bool{"FS-S": true, "CW-S": true, "R8B-S": true, "MB-S": true}
	for _, d := range append(Datasets(), ExtraDatasets()...) {
		if testing.Short() && large[d.Name] {
			continue
		}
		g, err := d.Gen()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if got := graphDigest(g); got != want[d.Name] {
			t.Errorf("%s: digest %s, want %s", d.Name, got, want[d.Name])
		}
	}
}

// BenchmarkDatasetGen times graph generation alone, uncached, for the
// smallest Table IV analogue and the multi-board preset.
func BenchmarkDatasetGen(b *testing.B) {
	for _, name := range []string{"TT-S", "MB-S"} {
		d, err := DatasetByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Gen(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
