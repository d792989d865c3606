package rsm

import "ituaval/internal/rng"

// NodeID addresses one endpoint on the transport: a replica slot, or
// ClientID for the measuring client.
type NodeID int32

// ClientID is the synthetic client's address. It lives on no host, so host
// exclusion and partitions never cut it off — the client models the outside
// observer, reachable by assumption.
const ClientID NodeID = -1

// Packet is one delivered payload.
type Packet struct {
	From, To NodeID
	Payload  []byte
}

// entry is one in-flight packet. It holds no pointers — the payload lives
// in the transport's slab under index buf — so the queue's sift swaps are
// plain word copies the garbage collector never sees.
type entry struct {
	at   float64 // virtual delivery time, hours
	seq  uint64  // tie-break: send order
	from NodeID
	to   NodeID
	buf  int32 // payload slab index
}

// before is the delivery order: (at, seq). seq is unique, so this is a
// strict total order and every correct heap pops the same sequence.
func (e *entry) before(o *entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// queue is a binary min-heap of entries in delivery order.
type queue []entry

func (q *queue) push(e entry) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *queue) pop() entry {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&h[i]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	*q = h
	return top
}

// Transport is an in-process loopback network for the replicated service: a
// discrete-event queue delivering packets in (time, sequence) order, with
// seeded per-link latency jitter, seeded loss, host exclusion, and
// partition support. All nondeterminism is drawn from the seeded stream, so
// runs are reproducible.
//
// Node ids (other than ClientID) and hosts are small non-negative indices —
// replica slots and host numbers — so reachability reads them from slices.
type Transport struct {
	rs          *rng.Stream
	latencyMean float64 // mean one-way latency, hours
	lossProb    float64

	now   float64
	seq   uint64
	queue queue

	// The transport owns every queued payload: Send copies it into a slab
	// slot, and the slot returns to the free list once the packet is
	// dropped or its batch is superseded by the next DeliverBatch.
	bufs [][]byte
	free []int32
	held []int32 // slots backing the last batch's packets
	out  []Packet

	host     []int32 // by NodeID: host index, -1 = unregistered
	excluded []bool  // by host
	// partition, when non-nil, severs the link when it returns true. It is
	// never consulted for the client (host -1 by convention of the caller).
	partition func(fromHost, toHost int) bool

	// Counters for tests and diagnostics.
	Sent, Dropped, Delivered int
}

// NewTransport builds an empty transport. latencyMean is the mean one-way
// delivery latency in hours (jittered uniformly over [0.5, 1.5)×mean);
// lossProb drops each replica-to-replica packet independently. Packets to
// or from the client are never lost: the measurement channel is assumed
// reliable so that loss perturbs the service, not the observer.
func NewTransport(rs *rng.Stream, latencyMean, lossProb float64) *Transport {
	return &Transport{rs: rs, latencyMean: latencyMean, lossProb: lossProb}
}

// Register attaches node id (>= 0) on the given host (>= 0). The client
// does not register; it is always reachable.
func (t *Transport) Register(id NodeID, host int) {
	for int(id) >= len(t.host) {
		t.host = append(t.host, -1)
	}
	t.host[id] = int32(host)
}

// Unregister detaches a node; packets in flight to it are dropped at
// delivery time.
func (t *Transport) Unregister(id NodeID) {
	if id >= 0 && int(id) < len(t.host) {
		t.host[id] = -1
	}
}

// ExcludeHost severs every node on the host (the transport-level effect of
// the management layer's exclusion): packets from or to its nodes are
// dropped from now on, including those already in flight.
func (t *Transport) ExcludeHost(host int) {
	for host >= len(t.excluded) {
		t.excluded = append(t.excluded, false)
	}
	t.excluded[host] = true
}

// SetPartition installs a link filter: packets whose (fromHost, toHost)
// pair the filter reports as severed are dropped. Nil heals all partitions.
func (t *Transport) SetPartition(f func(fromHost, toHost int) bool) { t.partition = f }

// AdvanceIdle moves the virtual clock forward by dt without delivering
// anything — client backoff between retry attempts.
func (t *Transport) AdvanceIdle(dt float64) { t.now += dt }

// hostOf returns the host of a registered node, or -1 for the client and
// for unregistered nodes.
func (t *Transport) hostOf(id NodeID) int {
	if id < 0 || int(id) >= len(t.host) {
		return -1
	}
	return int(t.host[id])
}

func (t *Transport) isExcluded(host int) bool { return host < len(t.excluded) && t.excluded[host] }

// reachable reports whether a packet between the two endpoints survives
// exclusion and partition filtering. The client (not registered) has
// conventional host -1 and bypasses both.
func (t *Transport) reachable(from, to NodeID) bool {
	fh, th := t.hostOf(from), t.hostOf(to)
	fromReplica, toReplica := fh >= 0, th >= 0
	if from != ClientID && !fromReplica {
		return false // unregistered (killed) sender
	}
	if to != ClientID && !toReplica {
		return false
	}
	if fromReplica && t.isExcluded(fh) {
		return false
	}
	if toReplica && t.isExcluded(th) {
		return false
	}
	if t.partition != nil && fromReplica && toReplica && t.partition(fh, th) {
		return false
	}
	return true
}

// Send queues a copy of payload; the caller may reuse its buffer as soon as
// Send returns. urgent packets are delivered at the current virtual time
// ahead of any latency-delayed traffic — the adversary's scheduling
// privilege under the worst-case network assumption. Loss applies only to
// replica-to-replica packets.
func (t *Transport) Send(from, to NodeID, payload []byte, urgent bool) {
	t.Sent++
	if !t.reachable(from, to) {
		t.Dropped++
		return
	}
	if t.lossProb > 0 && from != ClientID && to != ClientID && t.rs.Bernoulli(t.lossProb) {
		t.Dropped++
		return
	}
	at := t.now
	if !urgent {
		at += t.latencyMean * (0.5 + t.rs.Float64())
	}
	t.seq++
	var buf int32
	if k := len(t.free); k > 0 {
		buf = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		buf = int32(len(t.bufs))
		t.bufs = append(t.bufs, nil)
	}
	t.bufs[buf] = append(t.bufs[buf][:0], payload...)
	t.queue.push(entry{at: at, seq: t.seq, from: from, to: to, buf: buf})
}

// DeliverBatch advances the clock to the earliest in-flight delivery time
// and returns every packet due at that instant, in send order. Packets
// whose endpoints were excluded or unregistered after sending are dropped
// here, so a batch may come back empty while traffic remains in flight —
// poll Quiet, not the batch length, for termination.
//
// The returned slice and its payloads belong to the transport and stay
// valid until the next DeliverBatch call; Sends in between never overwrite
// them. Callers that keep a packet longer must copy it.
func (t *Transport) DeliverBatch() []Packet {
	t.free = append(t.free, t.held...)
	t.held = t.held[:0]
	out := t.out[:0]
	started := false
	for len(t.queue) > 0 {
		if started && t.queue[0].at != t.now {
			break
		}
		e := t.queue.pop()
		t.now = e.at
		started = true
		if !t.reachable(e.from, e.to) {
			t.Dropped++
			t.free = append(t.free, e.buf)
			continue
		}
		t.Delivered++
		t.held = append(t.held, e.buf)
		p := t.bufs[e.buf]
		out = append(out, Packet{From: e.from, To: e.to, Payload: p[:len(p):len(p)]})
	}
	t.out = out
	return out
}

// Quiet reports whether no packets are in flight.
func (t *Transport) Quiet() bool { return len(t.queue) == 0 }
