package study

import (
	"context"
	"testing"

	"ituaval/internal/core"
	"ituaval/internal/rng"
	"ituaval/internal/sim"
)

// fig5FlatAllocsPerRep bounds the allocations of one Figure-5 replication
// through sim.RunFlat with the study's four reward variables: the
// per-replication observers and their observation slices. Measured at 16
// on every fig5Grid point; the engine itself allocates nothing.
const fig5FlatAllocsPerRep = 20

// TestFig5ReplicationAllocs gates the paper's model on every fig5Grid
// point (host and domain exclusion allocate differently): a replication
// through RunFlat with the four reward variables stays within
// fig5FlatAllocsPerRep, measured as the difference between two reps
// counts so the pool's fixed setup cancels. The engine alone is gated at
// 0 by TestRegisteredGridReplicationAllocFree.
func TestFig5ReplicationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, pt := range fig5Grid() {
		m, err := core.Build(pt.Params)
		if err != nil {
			t.Fatal(err)
		}
		flat := func(reps int) func() {
			return func() {
				spec := sim.Spec{Model: m.SAN, Until: pt.Until, Reps: reps, Seed: 1 + pt.SeedOffset,
					Workers: 1, Vars: pt.Vars(m)}
				if fr := sim.RunFlat(context.Background(), []sim.Spec{spec}, 1); fr[0].Err != nil {
					t.Fatal(fr[0].Err)
				}
			}
		}
		const few, many = 100, 300
		perRep := (testing.AllocsPerRun(1, flat(many)) - testing.AllocsPerRun(1, flat(few))) / (many - few)
		t.Logf("%s: %.1f allocations per RunFlat replication", pt.Label, perRep)
		if perRep > fig5FlatAllocsPerRep {
			t.Errorf("%s: %.1f allocations per RunFlat replication, want at most %d",
				pt.Label, perRep, fig5FlatAllocsPerRep)
		}
	}
}

// TestRegisteredGridReplicationAllocFree: on every point of every
// registered grid, Figure 5's included, a warm replication of the engine
// alone allocates nothing. Placement on domains of any size (fig3's and
// abl-convict's 12-host domains) and correlated campaigns (the faults
// grid) allocate nothing either.
func TestRegisteredGridReplicationAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, id := range IDs() {
		grid := Registry[id].Grid
		if grid == nil {
			continue
		}
		for _, pt := range grid() {
			m, err := core.Build(pt.Params)
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.NewEngine(m.SAN, false)
			stream := rng.New(1).Derive(uint64(pt.SeedOffset))
			run := func() {
				if err := eng.RunOnce(pt.Until, stream, nil, 0); err != nil {
					t.Fatal(err)
				}
			}
			for range 20 { // warm the heap and scratch buffers
				run()
			}
			if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
				t.Errorf("%s %s: engine replication allocates %v times, want 0", id, pt.Label, allocs)
			}
		}
	}
}
