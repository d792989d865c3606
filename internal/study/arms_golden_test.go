package study

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateArmsGolden = flag.Bool("update-arms-golden", false,
	"rewrite testdata/arms_golden.json from the current analytic, live and faults studies")

const armsGoldenPath = "testdata/arms_golden.json"

// armsStudies are the multi-engine studies the arms golden pins: every
// series of every arm (SAN, direct, live, exact) plus the notes.
var armsStudies = []string{"analytic", "live", "faults"}

// armsFigure runs one multi-engine study at reduced effort and flattens
// every series value with all four of its replication counts, then the
// notes.
func armsFigure(t *testing.T, id string) []string {
	t.Helper()
	fig, err := RunContext(context.Background(), id, Config{Reps: 60, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := flattenCounts(fig)
	k := 0
	for _, p := range fig.Panels {
		for _, s := range p.Series {
			for i := range s.X {
				out[k] += fmt.Sprintf("|failed=%d|skipped=%d", intAt(s.Failed, i), intAt(s.Skipped, i))
				k++
			}
		}
	}
	return append(out, fig.Notes...)
}

// armsSkipped reports why a study is not pinned in this run, or "".
func armsSkipped(id string) string {
	if raceEnabled && id != "live" {
		return "its exact arm (chains of 10^5 to 10^6 states) is too heavy under -race"
	}
	return ""
}

// TestArmsGolden pins the full analytic, live and faults figures bit for
// bit: the SAN sweep and every other engine's series, and the notes drawn
// from them (chain sizes, live probes and divergences, worst deviations,
// the exact anchor). Regenerate with `go test ./internal/study -run
// TestArmsGolden -update-arms-golden`, only for a change meant to alter
// sampled trajectories or a study's layout.
func TestArmsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if *updateArmsGolden {
		g := make(map[string][]string)
		for _, id := range armsStudies {
			if why := armsSkipped(id); why != "" {
				t.Fatalf("cannot capture %s: %s", id, why)
			}
			g[id] = armsFigure(t, id)
		}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(armsGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d studies)", armsGoldenPath, len(g))
		return
	}
	data, err := os.ReadFile(armsGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-arms-golden): %v", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, id := range armsStudies {
		t.Run(id, func(t *testing.T) {
			if why := armsSkipped(id); why != "" {
				t.Skip(why)
			}
			compareLines(t, fmt.Sprintf("%s/workers=4", id), armsFigure(t, id), want[id])
		})
	}
}
