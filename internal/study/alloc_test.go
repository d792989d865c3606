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
// point (host and domain exclusion allocate differently). A warm
// replication of the engine alone allocates nothing, and a replication
// through RunFlat with the four reward variables stays within
// fig5FlatAllocsPerRep, measured as the difference between two reps
// counts so the pool's fixed setup cancels.
func TestFig5ReplicationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, pt := range fig5Grid() {
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
			t.Errorf("%s: engine replication allocates %v times, want 0", pt.Label, allocs)
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
