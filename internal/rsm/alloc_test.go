package rsm

import (
	"testing"

	"ituaval/internal/groupcomm"
	"ituaval/internal/rng"
)

// TestTransportAllocFree gates the transport hot path: once the queue, the
// payload slab and the batch buffer are warm, sending one packet and
// delivering it allocates nothing.
func TestTransportAllocFree(t *testing.T) {
	tr := NewTransport(rng.New(1), 1e-6, 0)
	tr.Register(0, 0)
	tr.Register(1, 1)
	payload := WireMsg{Kind: KindEcho, Probe: 1, Value: "v"}.Encode()
	run := func() {
		tr.Send(0, 1, payload, false)
		if got := tr.DeliverBatch(); len(got) != 1 {
			t.Fatalf("batch of %d packets, want 1", len(got))
		}
	}
	run() // warm the queue, slab and batch buffer
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("%v allocs per Send+DeliverBatch, want 0", allocs)
	}
}

// TestProbeAllocs gates the client probe: on a warm 7-member group a probe
// reuses the cluster's member, response and tally state, the transport's
// queue and slab, and every honest replica's Bracha state. What remains is
// the probe's expected-value string and, with colluders, the messages
// their behavior scripts return.
func TestProbeAllocs(t *testing.T) {
	collude := map[int]groupcomm.Behavior{}
	for slot := 4; slot < 7; slot++ { // u = f+1 = 3
		collude[slot] = groupcomm.Collude{Value: "byz"}
	}
	for _, tc := range []struct {
		name      string
		behaviors map[int]groupcomm.Behavior
		want      ProbeOutcome
		bound     float64
	}{
		{"honest", nil, ProbeCorrect, 2},
		{"collude-f+1", collude, ProbeWrong, 20},
	} {
		cl, _ := testCluster(t, 7, tc.behaviors)
		run := func() {
			if got := cl.Probe(); got != tc.want {
				t.Fatalf("%s: probe = %v, want %v", tc.name, got, tc.want)
			}
		}
		run() // warm
		allocs := testing.AllocsPerRun(50, run)
		t.Logf("%s: %v allocs per probe", tc.name, allocs)
		if allocs > tc.bound {
			t.Errorf("%s: %v allocs per probe, want <= %v", tc.name, allocs, tc.bound)
		}
	}
}
