package rsm

import (
	"testing"

	"ituaval/internal/groupcomm"
	"ituaval/internal/rng"
)

// testCluster builds a cluster of n replicas (slot i on host i) and applies
// behaviors to the given slots. A nil behavior map means all honest.
func testCluster(t *testing.T, n int, behaviors map[int]groupcomm.Behavior) (*cluster, *Transport) {
	t.Helper()
	tr := NewTransport(rng.New(101), 1e-6, 0)
	var behavior func(int, *rng.Stream) groupcomm.Behavior
	if behaviors != nil {
		behavior = func(slot int, _ *rng.Stream) groupcomm.Behavior { return behaviors[slot] }
	}
	cl := newCluster(rng.New(202), tr, behavior)
	for i := 0; i < n; i++ {
		cl.start(i, i)
	}
	for slot := range behaviors {
		cl.corrupt(slot)
	}
	return cl, tr
}

func TestProbeHonestGroup(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		cl, _ := testCluster(t, n, nil)
		if got := cl.Probe(); got != ProbeCorrect {
			t.Fatalf("n=%d honest: probe = %v", n, got)
		}
	}
}

// At or below the one-third threshold the probe stays correct; one past it
// the colluders force a certified wrong answer — the live realization of
// the model's failure predicate (3·undet ≥ running).
func TestProbeColludeThreshold(t *testing.T) {
	cases := []struct {
		n, bad int
		want   ProbeOutcome
	}{
		{4, 1, ProbeCorrect}, // f=1, u=1: safe
		{7, 2, ProbeCorrect}, // f=2, u=2: safe
		{4, 2, ProbeWrong},   // u = f+1: forged value certified
		{7, 3, ProbeWrong},   // u = f+1
		{3, 1, ProbeWrong},   // f=0: a single colluder owns the group
		{2, 1, ProbeWrong},   // f=0
		{1, 1, ProbeWrong},   // the last replica is corrupt
		{4, 4, ProbeWrong},   // everything corrupt
	}
	for _, tc := range cases {
		behaviors := map[int]groupcomm.Behavior{}
		for i := 0; i < tc.bad; i++ {
			behaviors[tc.n-1-i] = groupcomm.Collude{Value: "byz"}
		}
		cl, _ := testCluster(t, tc.n, behaviors)
		if got := cl.Probe(); got != tc.want {
			t.Fatalf("n=%d bad=%d: probe = %v, want %v", tc.n, tc.bad, got, tc.want)
		}
	}
}

// Silent corruption is weaker than the model's worst case: below the
// response threshold the service still answers, at it the service goes
// unavailable (never wrong).
func TestProbeSilentMajority(t *testing.T) {
	behaviors := map[int]groupcomm.Behavior{2: groupcomm.Silent{}, 3: groupcomm.Silent{}}
	cl, _ := testCluster(t, 4, behaviors)
	// 2 honest of 4: threshold ⌈5/2⌉ = 3 unreachable.
	if got := cl.Probe(); got != ProbeUnavailable {
		t.Fatalf("n=4 two silent: probe = %v, want unavailable", got)
	}
	behaviors = map[int]groupcomm.Behavior{3: groupcomm.Silent{}}
	cl, _ = testCluster(t, 4, behaviors)
	// 3 honest of 4 ≥ 3: still available.
	if got := cl.Probe(); got != ProbeCorrect {
		t.Fatalf("n=4 one silent: probe = %v, want correct", got)
	}
}

// A corrupt (silent) leader cannot stall the service: rotation reaches an
// honest leader within the bounded retries.
func TestProbeLeaderRotation(t *testing.T) {
	behaviors := map[int]groupcomm.Behavior{0: groupcomm.Silent{}}
	cl, _ := testCluster(t, 4, behaviors)
	if got := cl.Probe(); got != ProbeCorrect {
		t.Fatalf("silent leader: probe = %v, want correct after rotation", got)
	}
}

// Conviction masks a traitor's Byzantine script while the management
// response is pending: the member stays in the group but behaves correctly,
// mirroring the model's accounting (conviction removes it from undet but
// not from running).
func TestProbeConvictionMasks(t *testing.T) {
	behaviors := map[int]groupcomm.Behavior{3: groupcomm.Collude{Value: "byz"}, 2: groupcomm.Collude{Value: "byz"}}
	cl, _ := testCluster(t, 4, behaviors)
	// u = 2 = f+1: forged answer certified.
	if got := cl.Probe(); got != ProbeWrong {
		t.Fatalf("before conviction: probe = %v, want wrong", got)
	}
	cl.convict(3) // n=4, u=1 ≤ f: safe again
	if got := cl.Probe(); got != ProbeCorrect {
		t.Fatalf("after conviction: probe = %v, want correct", got)
	}
	cl.kill(3) // the response lands: group {0,1,2}, u=1 ≥ f+1=1 → wrong
	if got := cl.Probe(); got != ProbeWrong {
		t.Fatalf("after kill: probe = %v, want wrong", got)
	}
	cl.convict(2)
	cl.kill(2)
	cl.kill(0)
	cl.kill(1)
	if got := cl.Probe(); got != ProbeUnavailable {
		t.Fatalf("empty group: probe = %v, want unavailable", got)
	}
}

// A partition that splits the group below its echo quorum makes the probe
// fail cleanly (bounded, classified) and heal cleanly.
func TestProbePartition(t *testing.T) {
	cl, tr := testCluster(t, 4, nil)
	tr.SetPartition(func(a, b int) bool { return (a < 2) != (b < 2) }) // 2|2 split
	if got := cl.Probe(); got != ProbeUnavailable {
		t.Fatalf("partitioned: probe = %v, want unavailable", got)
	}
	tr.SetPartition(nil)
	if got := cl.Probe(); got != ProbeCorrect {
		t.Fatalf("healed: probe = %v, want correct", got)
	}
}

// Heavy loss degrades to unavailability, never to a hang or a wrong answer.
func TestProbeHeavyLoss(t *testing.T) {
	tr := NewTransport(rng.New(7), 1e-6, 0.95)
	cl := newCluster(rng.New(8), tr, nil)
	for i := 0; i < 4; i++ {
		cl.start(i, i)
	}
	for i := 0; i < 20; i++ {
		if got := cl.Probe(); got == ProbeWrong {
			t.Fatalf("loss produced a wrong answer on probe %d", i)
		}
	}
}
