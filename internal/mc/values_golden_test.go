package mc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"ituaval/internal/san"
)

var updateValuesGolden = flag.Bool("update-values-golden", false,
	"rewrite testdata/values_golden.json from the current solver")

const valuesGoldenPath = "testdata/values_golden.json"

// raceEnabled is set under the race detector, which slows the step kernel
// about 25-fold. The value golden then skips: its solves run no concurrent
// code that the package's other tests do not already run under it.
var raceEnabled bool

// TestSolveValuesGolden pins the exact bits of two solves that run through
// the uniformization step operator outside any Walk measure: the
// steady-state mean queue length of M/M/1/10 by power iteration, and a
// SHA-256 over the whole Transient(3000) distribution of the benchmark's
// tandem network at one and two workers. Regenerate with
// -update-values-golden only when a change is meant to alter solver values.
func TestSolveValuesGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("value golden skipped under the race detector (minutes of single-goroutine numerics)")
	}
	got := make(map[string]string)

	m, q := buildMM1K(t, 2, 3, 10)
	c, err := Generate(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mean, err := c.SteadyStateReward(func(s *san.State) float64 { return float64(s.Get(q)) })
	if err != nil {
		t.Fatal(err)
	}
	got["mm1k10/SteadyStateReward"] = fmt.Sprintf("%016x", math.Float64bits(mean))

	tandem := buildTandem(benchTandemK)
	for _, workers := range []int{1, 2} {
		c, err := Generate(tandem, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Transient(3000)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, x := range p {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		got[fmt.Sprintf("tandem%d/workers=%d/Transient(3000)", benchTandemK, workers)] = hex.EncodeToString(h.Sum(nil))
	}

	if *updateValuesGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(valuesGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(valuesGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-values-golden): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d values, solved %d", len(want), len(got))
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: got %s, want %s", key, got[key], w)
		}
	}
}
