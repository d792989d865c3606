// Package groupcomm implements the intrusion-tolerant group-communication
// substrate the ITUA architecture builds on (Section 2 of the paper: "an
// intrusion-tolerant group communication system is used to multicast among
// replica groups and the manager group", with "authenticated Byzantine
// agreement under a timed-asynchronous environment"). The paper models this
// layer by its guarantee — a group with fewer than one third of its active
// members corrupt reaches consensus — and this package provides the
// executable grounding for that guarantee: Bracha's authenticated reliable
// broadcast and a conviction-vote primitive, running over a simulated
// message network with adversarial (Byzantine) members, together with tests
// that demonstrate the properties hold exactly when f < n/3.
//
// The Bracha state machine (Bracha, Step) is exported so the live
// replicated state machine in internal/rsm can run the identical protocol
// over its own transport; ReliableBroadcast remains the reference
// round-based runner.
package groupcomm

import (
	"fmt"
	"sort"

	"ituaval/internal/rng"
)

// ProcessID identifies a group member. Channels are authenticated: a
// received message's From field cannot be forged, which is the
// "authenticated Byzantine agreement" assumption of the paper.
type ProcessID int

// MsgType is the Bracha protocol phase of a message.
type MsgType int

const (
	// MsgInit carries the sender's proposed value.
	MsgInit MsgType = iota + 1
	// MsgEcho is the witness phase.
	MsgEcho
	// MsgReady is the delivery-commitment phase.
	MsgReady
)

func (t MsgType) String() string {
	switch t {
	case MsgInit:
		return "INIT"
	case MsgEcho:
		return "ECHO"
	case MsgReady:
		return "READY"
	default:
		return fmt.Sprintf("MsgType(%d)", int(t))
	}
}

// Message is one authenticated protocol message.
type Message struct {
	From  ProcessID
	To    ProcessID
	Type  MsgType
	Value string
}

// Behavior scripts a Byzantine member: given the messages it received this
// round, it returns arbitrary messages to inject next round (the From field
// is forced to its own identity by the network — authentication).
type Behavior interface {
	Act(self ProcessID, group []ProcessID, round int, received []Message) []Message
}

// MaxTolerance returns the largest fault bound f a group of n members can
// be configured for while keeping n > 3f — the paper's one-third threshold.
// It is zero for n <= 3: such groups tolerate no Byzantine member.
func MaxTolerance(n int) int {
	if n <= 0 {
		return 0
	}
	return (n+2)/3 - 1
}

// Network simulates reliable authenticated point-to-point channels with
// round-based delivery: messages sent in round r arrive in round r+1.
// Reliability (no loss between correct processes) matches the paper's
// timed-asynchronous model after timeout handling.
type Network struct {
	pending []Message
	order   *rng.Stream
}

// NewNetwork creates an empty network delivering in canonical (send) order.
func NewNetwork() *Network { return &Network{} }

// NewSeededNetwork creates a network whose per-round delivery order is a
// uniform shuffle drawn from s. The shuffle is the only nondeterminism in a
// broadcast run, so two runs over networks seeded identically produce
// identical transcripts (see TestBroadcastTranscriptDeterminism).
func NewSeededNetwork(s *rng.Stream) *Network { return &Network{order: s} }

// Send queues m for delivery next round. The From field is trusted by the
// caller (the runner enforces authenticity for Byzantine members).
func (n *Network) Send(m Message) { n.pending = append(n.pending, m) }

// Delivery is one process's inbox for a round, messages in delivery order.
type Delivery struct {
	To   ProcessID
	Msgs []Message
}

// Deliver drains the in-flight messages and returns each non-empty inbox,
// inboxes in ascending process order and messages within an inbox in
// delivery order: the global send order by default, or a seeded uniform
// shuffle for a network built with NewSeededNetwork. Earlier versions
// returned a map, whose iteration order could leak into the replica step
// order; the explicit ordering makes every run deterministic — and, when
// seeded, reproducibly randomized.
func (n *Network) Deliver() []Delivery {
	if n.order != nil && len(n.pending) > 1 {
		perm := make([]int, len(n.pending))
		n.order.Perm(perm)
		shuffled := make([]Message, len(n.pending))
		for i, j := range perm {
			shuffled[i] = n.pending[j]
		}
		n.pending = shuffled
	}
	inbox := make(map[ProcessID][]Message)
	var ids []ProcessID
	for _, m := range n.pending {
		if _, seen := inbox[m.To]; !seen {
			ids = append(ids, m.To)
		}
		inbox[m.To] = append(inbox[m.To], m)
	}
	n.pending = n.pending[:0]
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Delivery, len(ids))
	for i, id := range ids {
		out[i] = Delivery{To: id, Msgs: inbox[id]}
	}
	return out
}

// Quiet reports whether no messages are in flight.
func (n *Network) Quiet() bool { return len(n.pending) == 0 }

// Bracha is the per-process state machine of Bracha's reliable broadcast,
// usable over any message layer: feed every received protocol message to
// Step and multicast whatever it returns. The zero value is not usable;
// construct instances with NewBracha (or Reset an existing one).
type Bracha struct {
	self      ProcessID
	n, f      int
	sentEcho  bool
	sentReady bool
	delivered bool
	value     string
	// echoes and readies tally, per value, the distinct senders seen.
	// Honest runs carry one or two values, so a short slice scanned
	// linearly beats a map; Reset keeps the backing arrays.
	echoes  []senders
	readies []senders
	out     [1]Message // Step's return buffer
}

// senders is the set of distinct processes that sent one value.
type senders struct {
	value string
	ids   []ProcessID
}

// NewBracha returns the protocol state of process self in a group of n
// members configured to tolerate f Byzantine members.
func NewBracha(self ProcessID, n, f int) *Bracha {
	b := new(Bracha)
	b.Reset(self, n, f)
	return b
}

// Reset reinitializes b as NewBracha(self, n, f) would, reusing its tally
// storage.
func (b *Bracha) Reset(self ProcessID, n, f int) {
	b.self, b.n, b.f = self, n, f
	b.sentEcho, b.sentReady, b.delivered = false, false, false
	b.value = ""
	b.echoes, b.readies = b.echoes[:0], b.readies[:0]
}

// Delivered reports the value this process delivered, if any.
func (b *Bracha) Delivered() (string, bool) { return b.value, b.delivered }

// record adds from to v's sender set and returns the set's size.
func record(set *[]senders, v string, from ProcessID) int {
	s := *set
	for i := range s {
		if s[i].value != v {
			continue
		}
		for _, id := range s[i].ids {
			if id == from {
				return len(s[i].ids)
			}
		}
		s[i].ids = append(s[i].ids, from)
		return len(s[i].ids)
	}
	if len(s) < cap(s) {
		s = s[:len(s)+1] // reuse the slot, and its ids array, from before Reset
	} else {
		s = append(s, senders{})
	}
	last := &s[len(s)-1]
	last.value = v
	last.ids = append(last.ids[:0], from)
	*set = s
	return 1
}

// Step consumes one received message and returns the messages to multicast
// (one copy per group member is produced by the caller; the returned
// messages carry no To). sender is the designated broadcast originator:
// only its INIT counts, which is the authentication assumption. The
// returned slice is reused by the next Step call.
func (b *Bracha) Step(m Message, sender ProcessID) (broadcast []Message) {
	mark := func(t MsgType, v string) {
		b.out[0] = Message{From: b.self, Type: t, Value: v}
		broadcast = b.out[:]
	}
	switch m.Type {
	case MsgInit:
		// Only the designated sender's INIT counts.
		if m.From == sender && !b.sentEcho {
			b.sentEcho = true
			mark(MsgEcho, m.Value)
		}
	case MsgEcho:
		count := record(&b.echoes, m.Value, m.From)
		// Echo threshold: > (n+f)/2 distinct echoes.
		if !b.sentReady && 2*count > b.n+b.f {
			b.sentReady = true
			mark(MsgReady, m.Value)
		}
	case MsgReady:
		count := record(&b.readies, m.Value, m.From)
		if !b.sentReady && count > b.f {
			// Ready amplification: f+1 readies prove a correct process
			// committed, so join.
			b.sentReady = true
			mark(MsgReady, m.Value)
		}
		if !b.delivered && count > 2*b.f {
			b.delivered = true
			b.value = m.Value
		}
	}
	return broadcast
}

// Outcome classifies how a broadcast run ended.
type Outcome int

const (
	// OutcomeQuiescent: the protocol reached a fixed point with no
	// messages in flight — the normal termination of a broadcast, whether
	// or not anything was delivered.
	OutcomeQuiescent Outcome = iota
	// OutcomeRoundBudget: MaxRounds elapsed with messages still in
	// flight. Byzantine behaviors that inject messages forever land here
	// instead of livelocking the runner.
	OutcomeRoundBudget
	// OutcomeStepBudget: the total protocol-step budget (MaxSteps) was
	// exhausted mid-round — the adversarial message volume exceeded any
	// honest execution's need.
	OutcomeStepBudget
)

func (o Outcome) String() string {
	switch o {
	case OutcomeQuiescent:
		return "quiescent"
	case OutcomeRoundBudget:
		return "round-budget"
	case OutcomeStepBudget:
		return "step-budget"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// TimeoutError is the classified result of a broadcast that exhausted its
// round or step budget, mirroring the budget-exhaustion taxonomy of the
// simulation runner (sim.FailureBudget): bounded, recorded, never spinning.
type TimeoutError struct {
	Outcome Outcome
	Rounds  int
	Steps   int
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("groupcomm: broadcast exceeded its %s (%d rounds, %d steps)",
		e.Outcome, e.Rounds, e.Steps)
}

// BroadcastResult reports the outcome of one reliable broadcast.
type BroadcastResult struct {
	// Delivered maps every correct process to the value it delivered;
	// processes that never delivered are absent.
	Delivered map[ProcessID]string
	// Rounds is the number of simulated rounds executed.
	Rounds int
	// Steps is the number of protocol messages processed by correct
	// processes.
	Steps int
	// Outcome classifies the termination; Err is non-nil (a *TimeoutError)
	// for the budget outcomes. Delivered stays valid either way: budget
	// exhaustion truncates the run but does not un-deliver.
	Outcome Outcome
	Err     error
	// Transcript is the delivery-ordered list of every message handed to a
	// correct process, recorded when Group.Record is set. Two runs with the
	// same Group.Seed produce identical transcripts.
	Transcript []Message
}

// Group describes one reliable-broadcast experiment.
type Group struct {
	// N is the group size; processes are 0..N-1.
	N int
	// Faulty lists the Byzantine members and their behaviors.
	Faulty map[ProcessID]Behavior
	// Tolerance is the fault bound f the protocol is configured for
	// (0 = the actual number of faulty members). Setting it below the
	// actual count models a deployment whose one-third assumption is
	// violated — the regime in which the paper's groups "become unable to
	// reach consensus".
	Tolerance int
	// MaxRounds bounds the simulation (default 50).
	MaxRounds int
	// MaxSteps bounds the total number of protocol messages processed by
	// correct processes across the whole run (default 8·N²·MaxRounds —
	// far above any honest execution). Exhausting it classifies the run
	// as OutcomeStepBudget instead of spinning through adversarial
	// message floods.
	MaxSteps int
	// Seed, when non-zero, seeds the per-round delivery order (a uniform
	// shuffle); zero keeps the canonical send order. Either way the run
	// is fully deterministic.
	Seed uint64
	// Record captures the delivery transcript in the result.
	Record bool
}

// members returns all process ids.
func (g Group) members() []ProcessID {
	ids := make([]ProcessID, g.N)
	for i := range ids {
		ids[i] = ProcessID(i)
	}
	return ids
}

// f returns the fault bound the protocol runs with.
func (g Group) f() int {
	if g.Tolerance > 0 {
		return g.Tolerance
	}
	return len(g.Faulty)
}

// ReliableBroadcast runs Bracha's protocol with the given sender and value.
// If the sender is Byzantine its behavior script speaks first (it may
// equivocate); a correct sender multicasts INIT(value). The run is bounded
// by the group's round and step budgets; exceeding either yields a
// classified TimeoutError in the result rather than an unbounded loop.
func ReliableBroadcast(g Group, sender ProcessID, value string) BroadcastResult {
	if g.MaxRounds <= 0 {
		g.MaxRounds = 50
	}
	if g.MaxSteps <= 0 {
		g.MaxSteps = 8 * g.N * g.N * g.MaxRounds
	}
	net := NewNetwork()
	if g.Seed != 0 {
		net = NewSeededNetwork(rng.New(g.Seed))
	}
	group := g.members()
	states := make(map[ProcessID]*Bracha)
	for _, id := range group {
		if _, bad := g.Faulty[id]; !bad {
			states[id] = NewBracha(id, g.N, g.f())
		}
	}
	received := make(map[ProcessID][]Message)

	var res BroadcastResult
	res.Delivered = make(map[ProcessID]string)

	// Round 0: the sender speaks.
	if _, bad := g.Faulty[sender]; !bad {
		for _, to := range group {
			net.Send(Message{From: sender, To: to, Type: MsgInit, Value: value})
		}
	}

	// Byzantine ids in stable order, so behaviors drawing random numbers
	// stay reproducible.
	faultyIDs := make([]ProcessID, 0, len(g.Faulty))
	for id := range g.Faulty {
		faultyIDs = append(faultyIDs, id)
	}
	sort.Slice(faultyIDs, func(i, j int) bool { return faultyIDs[i] < faultyIDs[j] })

	rounds, steps := 0, 0
	quiesced := false
loop:
	for ; rounds < g.MaxRounds; rounds++ {
		// Byzantine members act on what they received last round (the
		// sender's script also runs in round 0 so it can equivocate).
		for _, id := range faultyIDs {
			for _, m := range g.Faulty[id].Act(id, group, rounds, received[id]) {
				m.From = id // authentication: cannot forge the sender
				net.Send(m)
			}
		}
		if net.Quiet() {
			quiesced = true
			break
		}
		for id := range received {
			received[id] = received[id][:0]
		}
		// Process every inbox in delivery order: canonical or seeded, but
		// never dependent on map iteration.
		for _, d := range net.Deliver() {
			st, correct := states[d.To]
			for _, m := range d.Msgs {
				received[d.To] = append(received[d.To], m)
				if !correct {
					continue
				}
				if steps++; steps > g.MaxSteps {
					res.Outcome = OutcomeStepBudget
					res.Err = &TimeoutError{Outcome: OutcomeStepBudget, Rounds: rounds, Steps: steps}
					break loop
				}
				if g.Record {
					res.Transcript = append(res.Transcript, m)
				}
				for _, out := range st.Step(m, sender) {
					for _, to := range group {
						out.To = to
						net.Send(out)
					}
				}
			}
		}
	}
	if !quiesced && res.Err == nil {
		res.Outcome = OutcomeRoundBudget
		res.Err = &TimeoutError{Outcome: OutcomeRoundBudget, Rounds: rounds, Steps: steps}
	}
	res.Rounds, res.Steps = rounds, steps
	for id, st := range states {
		if v, ok := st.Delivered(); ok {
			res.Delivered[id] = v
		}
	}
	return res
}

// --- Byzantine behavior library -------------------------------------------

// Responder is an optional Behavior extension consulted by the live
// replicated state machine (internal/rsm) for a Byzantine replica's answer
// to a client request — distinct from the agreement messages the behavior
// injects. ok = false means the member stays silent (a crashed replica).
type Responder interface {
	Respond(probe uint64) (value string, ok bool)
}

// Silent is a crashed/muted Byzantine member.
type Silent struct{}

// Act implements Behavior.
func (Silent) Act(ProcessID, []ProcessID, int, []Message) []Message { return nil }

// Respond implements Responder: a silent member never answers.
func (Silent) Respond(uint64) (string, bool) { return "", false }

// EquivocatingSender sends INIT(A) to half the group and INIT(B) to the
// other half in round 0, then echoes both values to everyone.
type EquivocatingSender struct {
	A, B string
}

// Act implements Behavior.
func (e EquivocatingSender) Act(self ProcessID, group []ProcessID, round int, _ []Message) []Message {
	var out []Message
	switch round {
	case 0:
		for i, to := range group {
			v := e.A
			if i%2 == 1 {
				v = e.B
			}
			out = append(out, Message{To: to, Type: MsgInit, Value: v})
		}
	case 1, 2:
		for i, to := range group {
			v := e.A
			if i%2 == 1 {
				v = e.B
			}
			out = append(out, Message{To: to, Type: MsgEcho, Value: v})
			out = append(out, Message{To: to, Type: MsgReady, Value: v})
		}
	}
	return out
}

// Respond implements Responder: the equivocator answers with A or B by probe
// parity, so different clients (or retries) can see different lies.
func (e EquivocatingSender) Respond(probe uint64) (string, bool) {
	if probe%2 == 1 {
		return e.B, true
	}
	return e.A, true
}

// RandomLiar injects random echoes and readies for adversarially chosen
// values for a few rounds.
type RandomLiar struct {
	Stream *rng.Stream
	Values []string
}

// Act implements Behavior.
func (r RandomLiar) Act(self ProcessID, group []ProcessID, round int, _ []Message) []Message {
	if round > 6 || len(r.Values) == 0 {
		return nil
	}
	out := make([]Message, 0, len(group))
	for _, to := range group {
		v := r.Values[r.Stream.Intn(len(r.Values))]
		t := MsgEcho
		if r.Stream.Bernoulli(0.5) {
			t = MsgReady
		}
		out = append(out, Message{To: to, Type: t, Value: v})
	}
	return out
}

// Respond implements Responder: a random value from the repertoire.
func (r RandomLiar) Respond(uint64) (string, bool) {
	if len(r.Values) == 0 {
		return "", false
	}
	return r.Values[r.Stream.Intn(len(r.Values))], true
}

// Collude makes every faulty member echo/ready a single adversarial value.
// It is the worst-case adversary of the repertoire: once the colluders
// reach f+1 members, Bracha's READY amplification lets them drag every
// correct process into delivering the forged value — exactly the paper's
// "group becomes unable to reach consensus" threshold, realized.
type Collude struct{ Value string }

// Act implements Behavior.
func (c Collude) Act(self ProcessID, group []ProcessID, round int, _ []Message) []Message {
	if round > 4 {
		return nil
	}
	out := make([]Message, 0, 2*len(group))
	for _, to := range group {
		out = append(out, Message{To: to, Type: MsgEcho, Value: c.Value})
		out = append(out, Message{To: to, Type: MsgReady, Value: c.Value})
	}
	return out
}

// Respond implements Responder: always the colluded value.
func (c Collude) Respond(uint64) (string, bool) { return c.Value, true }
