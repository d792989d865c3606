package sim

import (
	"testing"

	"ituaval/internal/reward"
	"ituaval/internal/rng"
	"ituaval/internal/san"
)

// queueLen is a resettable time-average-of-marking observer. The
// production reward observers are built fresh per replication and do not
// reset their accumulated state on Init, so a test that reuses one
// observer across replications needs its own; resetting in Init keeps the
// replication loop allocation-free.
type queueLen struct {
	q        *san.Place
	integral float64
	start    float64
	end      float64
}

func (o *queueLen) Init(s *san.State, t float64) { o.integral, o.start, o.end = 0, t, t }
func (o *queueLen) Advance(s *san.State, t0, t1 float64) {
	o.integral += float64(s.Get(o.q)) * (t1 - t0)
	o.end = t1
}
func (o *queueLen) Fired(*san.State, *san.Activity, int, float64) {}
func (o *queueLen) Done(s *san.State, t float64)                  { o.end = t }
func (o *queueLen) Results(emit func(float64)) {
	if o.end > o.start {
		emit(o.integral / (o.end - o.start))
	}
}

// TestEngineReplicationAllocFree gates the engine hot path: once the
// engine's scratch buffers are warm, a whole replication (sample,
// schedule, pop, fire, incremental re-enable, observer callbacks)
// allocates nothing, with and without an observer attached.
func TestEngineReplicationAllocFree(t *testing.T) {
	m, q := buildMM1K(t, 2, 3, 10)
	for _, tc := range []struct {
		name string
		obs  []reward.Observer
	}{
		{"no-observer", nil},
		{"time-average", []reward.Observer{&queueLen{q: q}}},
	} {
		eng := NewEngine(m, false)
		stream := rng.New(1).Derive(0)
		run := func() {
			if err := eng.RunOnce(100, stream, tc.obs, 0); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm scratch buffers
		if eng.Firings() == 0 {
			t.Fatalf("%s: replication fired nothing", tc.name)
		}
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("%s: %v allocs per replication, want 0", tc.name, allocs)
		}
	}
}
