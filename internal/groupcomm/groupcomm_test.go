package groupcomm

import (
	"fmt"
	"testing"

	"ituaval/internal/rng"
)

// correctMembers returns the non-faulty ids of a group.
func correctMembers(g Group) []ProcessID {
	var out []ProcessID
	for _, id := range g.members() {
		if _, bad := g.Faulty[id]; !bad {
			out = append(out, id)
		}
	}
	return out
}

// checkAgreementTotality verifies Bracha's safety/totality: if any correct
// process delivered, all did, and all delivered the same value.
func checkAgreementTotality(t *testing.T, g Group, res BroadcastResult, context string) {
	t.Helper()
	correct := correctMembers(g)
	if len(res.Delivered) == 0 {
		return // nothing delivered: safety holds vacuously
	}
	var value string
	for _, v := range res.Delivered {
		value = v
		break
	}
	for id, v := range res.Delivered {
		if v != value {
			t.Fatalf("%s: disagreement: process %d delivered %q, others %q", context, id, v, value)
		}
	}
	if len(res.Delivered) != len(correct) {
		t.Fatalf("%s: totality violated: %d of %d correct processes delivered",
			context, len(res.Delivered), len(correct))
	}
}

func TestBroadcastAllCorrect(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		g := Group{N: n}
		res := ReliableBroadcast(g, 0, "v")
		if len(res.Delivered) != n {
			t.Fatalf("n=%d: delivered %d", n, len(res.Delivered))
		}
		checkAgreementTotality(t, g, res, fmt.Sprintf("n=%d", n))
		for _, v := range res.Delivered {
			if v != "v" {
				t.Fatalf("n=%d: validity violated: delivered %q", n, v)
			}
		}
	}
}

func TestBroadcastValidityUnderMaxFaults(t *testing.T) {
	// With f = floor((n-1)/3) Byzantine members (any behaviour), a correct
	// sender's value must be delivered by every correct process.
	stream := rng.New(42)
	for _, n := range []int{4, 7, 10, 13} {
		f := (n - 1) / 3
		for trial := 0; trial < 30; trial++ {
			faulty := map[ProcessID]Behavior{}
			// Faulty members are the top ids; mix of behaviors.
			for i := 0; i < f; i++ {
				id := ProcessID(n - 1 - i)
				switch trial % 3 {
				case 0:
					faulty[id] = Silent{}
				case 1:
					faulty[id] = Collude{Value: "evil"}
				default:
					faulty[id] = RandomLiar{Stream: stream.Derive(uint64(trial*100 + i)), Values: []string{"v", "evil", "x"}}
				}
			}
			g := Group{N: n, Faulty: faulty}
			res := ReliableBroadcast(g, 0, "v")
			context := fmt.Sprintf("n=%d f=%d trial=%d", n, f, trial)
			correct := correctMembers(g)
			if len(res.Delivered) != len(correct) {
				t.Fatalf("%s: validity/totality violated: %d of %d delivered",
					context, len(res.Delivered), len(correct))
			}
			for id, v := range res.Delivered {
				if v != "v" {
					t.Fatalf("%s: process %d delivered %q", context, id, v)
				}
			}
		}
	}
}

func TestBroadcastAgreementWithEquivocatingSender(t *testing.T) {
	// A Byzantine sender (plus colluding helpers up to f total) must never
	// cause two correct processes to deliver different values while
	// f < n/3.
	for _, n := range []int{4, 7, 10} {
		f := (n - 1) / 3
		faulty := map[ProcessID]Behavior{0: EquivocatingSender{A: "a", B: "b"}}
		for i := 1; i < f; i++ {
			faulty[ProcessID(i)] = Collude{Value: "a"}
		}
		g := Group{N: n, Faulty: faulty}
		res := ReliableBroadcast(g, 0, "")
		checkAgreementTotality(t, g, res, fmt.Sprintf("n=%d equivocation", n))
	}
}

func TestBroadcastFailsBeyondThreshold(t *testing.T) {
	// A deployment configured for f=1 (n=6) that actually suffers three
	// colluding Byzantine members: the one-third assumption is violated
	// and the colluders can push a forged value through the READY
	// amplification, breaking validity/agreement — exactly why the paper's
	// groups fail once a third or more of the members are corrupt.
	n := 6
	faulty := map[ProcessID]Behavior{
		3: Collude{Value: "forged"},
		4: Collude{Value: "forged"},
		5: Collude{Value: "forged"},
	}
	g := Group{N: n, Faulty: faulty, Tolerance: 1}
	res := ReliableBroadcast(g, 0, "v")
	violated := false
	correct := correctMembers(g)
	if len(res.Delivered) != 0 && len(res.Delivered) != len(correct) {
		violated = true // totality broken
	}
	seen := map[string]bool{}
	for _, v := range res.Delivered {
		seen[v] = true
	}
	if len(seen) > 1 || seen["forged"] {
		violated = true // agreement or validity broken
	}
	if !violated {
		t.Fatalf("expected a property violation beyond the tolerated fault bound; delivered=%v", res.Delivered)
	}
}

func TestByzantineSenderCannotForgeIdentity(t *testing.T) {
	// A Byzantine member that claims to be the (correct) sender must be
	// ignored: the network stamps the real From.
	n := 4
	g := Group{N: n, Faulty: map[ProcessID]Behavior{3: impostorBehavior{}}}
	res := ReliableBroadcast(g, 0, "v")
	checkAgreementTotality(t, g, res, "impostor")
	for _, v := range res.Delivered {
		if v != "v" {
			t.Fatalf("impostor changed the delivered value to %q", v)
		}
	}
}

// impostorBehavior claims INIT messages in the sender's name; the network
// must overwrite From with the real identity.
type impostorBehavior struct{}

func (impostorBehavior) Act(self ProcessID, group []ProcessID, round int, _ []Message) []Message {
	if round > 1 {
		return nil
	}
	var out []Message
	for _, to := range group {
		out = append(out, Message{From: 0 /* forged */, To: to, Type: MsgInit, Value: "forged"})
	}
	return out
}

func TestMsgTypeString(t *testing.T) {
	if MsgInit.String() != "INIT" || MsgEcho.String() != "ECHO" || MsgReady.String() != "READY" {
		t.Fatal("message type names")
	}
	if MsgType(9).String() == "" {
		t.Fatal("unknown type formatting")
	}
}

func TestConvictionVoteQuorum(t *testing.T) {
	// 7 members, 2 Byzantine (silent). All 5 correct members vote guilty:
	// 5 > 2*7/3 ≈ 4.67, so everyone convicts.
	spec := VoteSpec{
		N:            7,
		Faulty:       map[ProcessID]Behavior{5: Silent{}, 6: Silent{}},
		GuiltyVoters: []ProcessID{0, 1, 2, 3, 4},
	}
	res := ConvictionVote(spec)
	for id, convicted := range res.Convicted {
		if !convicted {
			t.Fatalf("member %d did not convict with %d votes", id, res.VotesDelivered[id])
		}
	}
}

func TestConvictionVoteInsufficientQuorum(t *testing.T) {
	// Only 4 of 7 correct members vote guilty: 4 < 2*7/3 quorum fails —
	// the group cannot convict, exactly the paper's "group becomes unable
	// to reach consensus" regime.
	spec := VoteSpec{
		N:            7,
		Faulty:       map[ProcessID]Behavior{5: Silent{}, 6: Silent{}},
		GuiltyVoters: []ProcessID{0, 1, 2, 3},
	}
	res := ConvictionVote(spec)
	for id, convicted := range res.Convicted {
		if convicted {
			t.Fatalf("member %d convicted with only %d votes", id, res.VotesDelivered[id])
		}
	}
}

func TestConvictionVoteOneThirdBound(t *testing.T) {
	// The paper's threshold: with strictly fewer than a third corrupt, the
	// remaining > 2/3 correct voters suffice to convict; at exactly a
	// third they no longer do.
	for _, tc := range []struct {
		n       int
		faulty  int
		convict bool
	}{
		{6, 1, true},  // 5 voters > 4 quorum
		{6, 2, false}, // 4 voters = 2n/3, not strictly greater
		{9, 2, true},  // 7 > 6
		{9, 3, false}, // 6 = 2n/3
	} {
		faulty := map[ProcessID]Behavior{}
		var voters []ProcessID
		for i := 0; i < tc.n; i++ {
			if i >= tc.n-tc.faulty {
				faulty[ProcessID(i)] = Silent{}
			} else {
				voters = append(voters, ProcessID(i))
			}
		}
		res := ConvictionVote(VoteSpec{N: tc.n, Faulty: faulty, GuiltyVoters: voters})
		for id, convicted := range res.Convicted {
			if convicted != tc.convict {
				t.Fatalf("n=%d faulty=%d: member %d convicted=%v want %v (votes=%d)",
					tc.n, tc.faulty, id, convicted, tc.convict, res.VotesDelivered[id])
			}
		}
	}
}

// A reset Bracha behaves exactly like a fresh one: the tallies of an
// earlier instance (other values, other senders, a delivery) leave no
// trace in the outputs or the delivered value.
func TestBrachaResetMatchesNew(t *testing.T) {
	script := []Message{
		{From: 0, Type: MsgInit, Value: "v"},
		{From: 1, Type: MsgEcho, Value: "v"},
		{From: 2, Type: MsgEcho, Value: "x"},
		{From: 1, Type: MsgEcho, Value: "v"}, // duplicate sender
		{From: 2, Type: MsgEcho, Value: "v"},
		{From: 3, Type: MsgEcho, Value: "v"},
		{From: 3, Type: MsgReady, Value: "x"},
		{From: 1, Type: MsgReady, Value: "v"},
		{From: 1, Type: MsgReady, Value: "v"},
		{From: 2, Type: MsgReady, Value: "v"},
		{From: 3, Type: MsgReady, Value: "v"},
	}
	run := func(b *Bracha) []string {
		var out []string
		for i, m := range script {
			for _, o := range b.Step(m, 0) {
				out = append(out, fmt.Sprintf("step %d: %v:%v:%s", i, o.From, o.Type, o.Value))
			}
			if v, ok := b.Delivered(); ok {
				out = append(out, fmt.Sprintf("step %d: delivered %q", i, v))
			}
		}
		return out
	}
	want := run(NewBracha(2, 4, 1))
	used := NewBracha(0, 7, 2)
	for from := ProcessID(0); from < 7; from++ {
		used.Step(Message{From: from, Type: MsgReady, Value: "old"}, 0)
		used.Step(Message{From: from, Type: MsgEcho, Value: "v"}, 0)
	}
	if _, ok := used.Delivered(); !ok {
		t.Fatal("setup: the used instance did not deliver")
	}
	used.Reset(2, 4, 1)
	if got := run(used); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reset instance: %v, fresh instance: %v", got, want)
	}
}
