package rsm

import (
	"fmt"
	"strconv"

	"ituaval/internal/groupcomm"
	"ituaval/internal/rng"
)

// node is one live replica process of the measured application.
type node struct {
	slot   int
	host   int
	placed bool // a replica occupies the slot
	// behavior is nil for an honest replica; otherwise the Byzantine script
	// the corrupted replica runs (the groupcomm repertoire).
	behavior groupcomm.Behavior
	// convicted marks a replica whose group/IDS conviction is still
	// awaiting its management response (blocked on manager quorum). The
	// model counts it as a running, non-Byzantine member until the kill
	// lands — conviction neutralizes the corruption — so the live group
	// keeps it as a member with its Byzantine script masked (see convict).
	convicted bool

	// Per-attempt protocol state of an honest replica, reset (not
	// reallocated) at every attempt.
	bracha    groupcomm.Bracha
	probe     uint64
	attempt   uint8
	expected  string
	leader    groupcomm.ProcessID
	index     groupcomm.ProcessID // this node's index within the attempt group
	inited    bool
	responded bool
	answered  bool // the client has tallied this replica's response
}

// ProbeOutcome classifies one client probe of the live service.
type ProbeOutcome int

const (
	// ProbeCorrect: the client certified the expected value — at least
	// ⌈(n+1)/2⌉ members answered it.
	ProbeCorrect ProbeOutcome = iota
	// ProbeWrong: the client certified a value different from the expected
	// one — a Byzantine service failure (unreliability event).
	ProbeWrong
	// ProbeUnavailable: no value reached the response threshold within the
	// retry budget.
	ProbeUnavailable
)

func (o ProbeOutcome) String() string {
	switch o {
	case ProbeCorrect:
		return "correct"
	case ProbeWrong:
		return "wrong"
	case ProbeUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("ProbeOutcome(%d)", int(o))
	}
}

// probeBatches bounds the transport batches of one probe attempt.
const probeBatches = 4096

// cluster is the live replica group of the measured application plus the
// synthetic client. The fault injector mutates it through hook calls; the
// client probes it through the transport.
//
// Replica slots are 0..RepsPerApp-1, so per-replica state lives in slices
// indexed by slot and is reused across probes and attempts.
type cluster struct {
	rs       *rng.Stream
	tr       *Transport
	behavior func(slot int, rs *rng.Stream) groupcomm.Behavior
	slots    []node // by slot
	probe    uint64

	// Probe scratch, reused across probes.
	members []*node // placed replicas in slot order
	group   []groupcomm.ProcessID
	tally   []valueCount
	values  []string // wire values seen this probe, interned
	wire    []byte   // encode buffer; Send copies it
}

// valueCount is the client's running count of responses carrying one value.
type valueCount struct {
	value string
	n     int
}

// newCluster builds an empty cluster; behavior scripts a corrupted slot
// (nil: Collude).
func newCluster(rs *rng.Stream, tr *Transport, behavior func(slot int, rs *rng.Stream) groupcomm.Behavior) *cluster {
	if behavior == nil {
		behavior = func(int, *rng.Stream) groupcomm.Behavior {
			// Collude is the default corruption repertoire: the worst-case
			// adversary whose live effect matches the model's one-third
			// failure predicate exactly (see DESIGN.md, "Live validation").
			return groupcomm.Collude{Value: "byz"}
		}
	}
	return &cluster{rs: rs, tr: tr, behavior: behavior}
}

// node returns the replica placed at slot id, or nil (the client, or an
// empty slot).
func (c *cluster) node(id NodeID) *node {
	if id < 0 || int(id) >= len(c.slots) || !c.slots[id].placed {
		return nil
	}
	return &c.slots[id]
}

// Lifecycle hooks, driven by inject.Hooks.

func (c *cluster) start(slot, host int) {
	for slot >= len(c.slots) {
		c.slots = append(c.slots, node{slot: len(c.slots)})
	}
	n := &c.slots[slot]
	n.host, n.placed, n.behavior, n.convicted = host, true, nil, false
	c.tr.Register(NodeID(slot), host)
}

func (c *cluster) corrupt(slot int) {
	if n := c.node(NodeID(slot)); n != nil {
		n.behavior = c.behavior(slot, c.rs)
	}
}

// convict handles a group/IDS conviction whose management response may
// still be pending: the group has identified the traitor, so its Byzantine
// script is masked — divergent agreement traffic ignored, answers forced
// correct — which is exactly how the model accounts for it (removed from
// undet, still counted running) until the kill lands. A convicted replica
// cannot be re-attacked (the model's attack guard), so masking is stable.
func (c *cluster) convict(slot int) {
	if n := c.node(NodeID(slot)); n != nil {
		n.convicted = true
		n.behavior = nil
	}
}

func (c *cluster) kill(slot int) {
	if n := c.node(NodeID(slot)); n != nil {
		n.placed, n.behavior = false, nil
	}
	c.tr.Unregister(NodeID(slot))
}

// intern returns a string equal to b, allocating only for a value not yet
// seen this probe.
func (c *cluster) intern(b []byte) string {
	for _, v := range c.values {
		if v == string(b) {
			return v
		}
	}
	v := string(b)
	c.values = append(c.values, v)
	return v
}

// Probe issues one client request against the current group and reports the
// outcome. Each attempt rotates the leader and runs the full agreement
// protocol over the transport; retries are bounded (rotation covers f+1
// distinct leaders, so an honest leader is reached whenever the group is
// within its fault threshold) with idle backoff between attempts.
func (c *cluster) Probe() ProbeOutcome {
	c.probe++
	c.members = c.members[:0]
	for i := range c.slots {
		if c.slots[i].placed {
			c.members = append(c.members, &c.slots[i])
		}
	}
	n := len(c.members)
	if n == 0 {
		return ProbeUnavailable
	}
	f := groupcomm.MaxTolerance(n)
	attempts := f + 1
	expected := string(strconv.AppendUint(append(c.wire[:0], 'v'), c.probe, 10))
	c.values = append(c.values[:0], expected)
	for at := 0; at < attempts; at++ {
		if at > 0 {
			c.tr.AdvanceIdle(float64(at) * 4 * c.tr.latencyMean) // retry backoff
		}
		leader := c.members[at%n]
		if outcome, decided := c.attempt(leader, uint8(at), expected, n, f); decided {
			return outcome
		}
	}
	return ProbeUnavailable
}

// attempt runs one leader-rotation attempt. decided = false means the
// attempt was inconclusive (no value certified before the transport went
// quiet or the batch budget ran out) and the caller should rotate.
func (c *cluster) attempt(leader *node, at uint8, expected string, n, f int) (ProbeOutcome, bool) {
	members := c.members
	c.group = c.group[:0]
	for i, m := range members {
		c.group = append(c.group, groupcomm.ProcessID(i))
		m.index = groupcomm.ProcessID(i)
		m.probe, m.attempt, m.answered = c.probe, at, false
		if m.behavior == nil {
			m.bracha.Reset(m.index, n, f)
			m.expected = expected
			m.leader = leader.index
			m.inited, m.responded = false, false
		}
	}
	c.tally = c.tally[:0]

	// The adversary speaks first: corrupted members inject their script's
	// messages for the early protocol rounds up front, with the scheduling
	// privilege (zero latency).
	for _, m := range members {
		if m.behavior == nil {
			continue
		}
		for round := 0; round <= 6; round++ {
			for _, gm := range m.behavior.Act(m.index, c.group, round, nil) {
				gm.From = m.index // authenticated channels
				if int(gm.To) < n && c.encodeGroupMsg(m, gm) {
					c.tr.Send(NodeID(m.slot), NodeID(members[gm.To].slot), c.wire, true)
				}
			}
		}
	}

	// The client multicasts its request.
	req := WireMsg{Kind: KindRequest, Probe: c.probe, Attempt: at, From: int32(ClientID), Value: expected}
	c.wire = req.AppendEncode(c.wire[:0])
	for _, m := range members {
		c.tr.Send(ClientID, NodeID(m.slot), c.wire, false)
	}

	// Event loop: drain the transport, dispatch, tally responses. The
	// verdict is read only at batch boundaries, so every packet of the
	// deciding batch is still dispatched (and draws its randomness).
	threshold := n/2 + 1 // ⌈(n+1)/2⌉
	certified := -1      // index into c.tally of the value at threshold
	for batch := 0; batch < probeBatches && !c.tr.Quiet(); batch++ {
		for _, pkt := range c.tr.DeliverBatch() {
			wv, err := parse(pkt.Payload)
			if err != nil || wv.Probe != c.probe || wv.Attempt != at {
				continue // stale traffic from an earlier attempt, or garbage
			}
			if pkt.To == ClientID {
				if from := c.node(pkt.From); wv.Kind == KindResponse && from != nil && !from.answered {
					from.answered = true
					if k := c.count(wv.Value); c.tally[k].n == threshold {
						certified = k
					}
				}
				continue
			}
			m := c.node(pkt.To)
			if m == nil {
				continue
			}
			if m.behavior != nil {
				c.dispatchByzantine(m, wv)
				continue
			}
			// Authenticated channels: the sender identity is the transport
			// source, never the (forgeable) wire From field.
			var sender groupcomm.ProcessID
			switch from := c.node(pkt.From); {
			case pkt.From == ClientID:
				if wv.Kind != KindRequest {
					continue
				}
			case from != nil:
				sender = from.index
				if wv.Kind == KindRequest {
					continue // only the client issues requests
				}
			default:
				continue
			}
			c.dispatchHonest(m, wv, sender)
		}
		if certified >= 0 {
			if c.tally[certified].value == expected {
				return ProbeCorrect, true
			}
			return ProbeWrong, true
		}
	}
	return ProbeUnavailable, false
}

// count adds one response carrying v to the running tally and returns the
// value's tally index.
func (c *cluster) count(v []byte) int {
	for k := range c.tally {
		if c.tally[k].value == string(v) {
			c.tally[k].n++
			return k
		}
	}
	c.tally = append(c.tally, valueCount{value: c.intern(v), n: 1})
	return len(c.tally) - 1
}

// dispatchHonest feeds one message to an honest replica's protocol state.
// sender is the authenticated group index of the source (ignored for
// client requests).
func (c *cluster) dispatchHonest(m *node, wv wireView, sender groupcomm.ProcessID) {
	switch wv.Kind {
	case KindRequest:
		// External validity anchor: the replica now knows the client's
		// value. The leader orders it; everyone else waits for the INIT.
		if m.index == m.leader && !m.inited {
			m.inited = true
			c.multicast(m, groupcomm.Message{From: m.index, Type: groupcomm.MsgInit, Value: m.expected})
		}
	case KindInit, KindEcho, KindReady:
		gm := groupcomm.Message{From: sender, To: m.index}
		switch wv.Kind {
		case KindInit:
			// External validity: only the designated leader's INIT of the
			// client's own value enters the protocol — a corrupt leader
			// cannot get honest echoes for a forged value.
			if string(wv.Value) != m.expected {
				return
			}
			gm.Type, gm.Value = groupcomm.MsgInit, m.expected
		case KindEcho:
			gm.Type, gm.Value = groupcomm.MsgEcho, c.intern(wv.Value)
		case KindReady:
			gm.Type, gm.Value = groupcomm.MsgReady, c.intern(wv.Value)
		}
		for _, out := range m.bracha.Step(gm, m.leader) {
			c.multicast(m, out)
		}
		if v, ok := m.bracha.Delivered(); ok && !m.responded {
			m.responded = true
			resp := WireMsg{Kind: KindResponse, Probe: m.probe, Attempt: m.attempt, From: int32(m.slot), Value: v}
			c.wire = resp.AppendEncode(c.wire[:0])
			c.tr.Send(NodeID(m.slot), ClientID, c.wire, false)
		}
	}
}

// dispatchByzantine handles traffic to a corrupted replica. Its agreement
// messages were injected up front; here it only answers the client, per its
// behavior's Responder extension (silent if the behavior has none).
func (c *cluster) dispatchByzantine(m *node, wv wireView) {
	if wv.Kind != KindRequest {
		return
	}
	r, ok := m.behavior.(groupcomm.Responder)
	if !ok {
		return
	}
	v, answer := r.Respond(wv.Probe)
	if !answer {
		return
	}
	resp := WireMsg{Kind: KindResponse, Probe: wv.Probe, Attempt: wv.Attempt, From: int32(m.slot), Value: v}
	c.wire = resp.AppendEncode(c.wire[:0])
	c.tr.Send(NodeID(m.slot), ClientID, c.wire, true) // the adversary's scheduling privilege
}

// multicast sends a groupcomm message from m to every member, in slot
// order, at normal latency.
func (c *cluster) multicast(m *node, gm groupcomm.Message) {
	if !c.encodeGroupMsg(m, gm) {
		return
	}
	for _, to := range c.members {
		c.tr.Send(NodeID(m.slot), NodeID(to.slot), c.wire, false)
	}
}

// encodeGroupMsg encodes a groupcomm message from m into c.wire. It
// reports false for a message type with no wire kind, which is not sent.
func (c *cluster) encodeGroupMsg(m *node, gm groupcomm.Message) bool {
	var kind MsgKind
	switch gm.Type {
	case groupcomm.MsgInit:
		kind = KindInit
	case groupcomm.MsgEcho:
		kind = KindEcho
	case groupcomm.MsgReady:
		kind = KindReady
	default:
		return false
	}
	wm := WireMsg{Kind: kind, Probe: c.probe, Attempt: m.attempt, From: int32(gm.From), Value: gm.Value}
	c.wire = wm.AppendEncode(c.wire[:0])
	return true
}
