package rsm

import (
	"reflect"
	"testing"

	"ituaval/internal/rng"
)

// drain delivers until quiet. A batch's payloads belong to the transport
// only until the next DeliverBatch, so drain copies them.
func drain(t *Transport) []Packet {
	var out []Packet
	for !t.Quiet() {
		for _, p := range t.DeliverBatch() {
			p.Payload = append([]byte(nil), p.Payload...)
			out = append(out, p)
		}
	}
	return out
}

func TestTransportDeterministicDelivery(t *testing.T) {
	mk := func(seed uint64) []Packet {
		tr := NewTransport(rng.New(seed), 1e-6, 0)
		for i := 0; i < 4; i++ {
			tr.Register(NodeID(i), i/2)
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				tr.Send(NodeID(i), NodeID(j), []byte{byte(i), byte(j)}, false)
			}
		}
		return drain(tr)
	}
	a, b := mk(5), mk(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different delivery sequences")
	}
	if len(a) != 16 {
		t.Fatalf("delivered %d of 16", len(a))
	}
	// A different seed jitters latencies differently: order may change but
	// nothing is lost.
	c := mk(6)
	if len(c) != 16 {
		t.Fatalf("seed 6: delivered %d of 16", len(c))
	}
}

func TestTransportUrgentBeatsLatency(t *testing.T) {
	tr := NewTransport(rng.New(1), 1e-6, 0)
	tr.Register(0, 0)
	tr.Register(1, 1)
	tr.Send(0, 1, []byte("slow"), false)
	tr.Send(1, 0, []byte("fast"), true)
	first := tr.DeliverBatch()
	if len(first) != 1 || string(first[0].Payload) != "fast" {
		t.Fatalf("urgent packet not delivered first: %v", first)
	}
}

func TestTransportExclusionAndPartition(t *testing.T) {
	tr := NewTransport(rng.New(2), 1e-6, 0)
	for i := 0; i < 4; i++ {
		tr.Register(NodeID(i), i) // one host per node
	}
	// In-flight traffic to an excluded host is dropped at delivery time.
	tr.Send(0, 1, []byte("x"), false)
	tr.ExcludeHost(1)
	if got := drain(tr); len(got) != 0 {
		t.Fatalf("delivered to excluded host: %v", got)
	}
	// The excluded node cannot send either, but the client still can be
	// reached by live nodes.
	tr.Send(1, 2, []byte("y"), false)
	tr.Send(2, ClientID, []byte("z"), false)
	got := drain(tr)
	if len(got) != 1 || string(got[0].Payload) != "z" {
		t.Fatalf("exclusion filtering wrong: %v", got)
	}

	// Partition hosts {0} from {2,3}; client traffic is unaffected.
	tr.SetPartition(func(a, b int) bool { return (a == 0) != (b == 0) })
	tr.Send(0, 2, []byte("cut"), false)
	tr.Send(2, 3, []byte("ok"), false)
	tr.Send(0, ClientID, []byte("client"), false)
	var vals []string
	for _, p := range drain(tr) {
		vals = append(vals, string(p.Payload))
	}
	if !reflect.DeepEqual(vals, []string{"ok", "client"}) && !reflect.DeepEqual(vals, []string{"client", "ok"}) {
		t.Fatalf("partition filtering wrong: %v", vals)
	}
	// Heal: traffic flows again.
	tr.SetPartition(nil)
	tr.Send(0, 2, []byte("healed"), false)
	if got := drain(tr); len(got) != 1 || string(got[0].Payload) != "healed" {
		t.Fatalf("heal failed: %v", got)
	}
}

func TestTransportLoss(t *testing.T) {
	tr := NewTransport(rng.New(3), 1e-6, 1) // every replica packet lost
	tr.Register(0, 0)
	tr.Register(1, 1)
	tr.Send(0, 1, []byte("gone"), false)
	tr.Send(0, ClientID, []byte("kept"), false) // client channel is lossless
	got := drain(tr)
	if len(got) != 1 || string(got[0].Payload) != "kept" {
		t.Fatalf("loss filtering wrong: %v", got)
	}
}

// Send copies the payload: a caller reusing its buffer right after Send
// cannot change what is delivered. A delivered batch stays intact while
// the receiver sends more traffic, until the next DeliverBatch.
func TestTransportOwnsPayloads(t *testing.T) {
	tr := NewTransport(rng.New(4), 1e-6, 0)
	tr.Register(0, 0)
	tr.Register(1, 1)
	buf := []byte("first")
	tr.Send(0, 1, buf, true)
	copy(buf, "XXXXX")
	tr.Send(1, 0, buf, true)
	copy(buf, "YYYYY")
	batch := tr.DeliverBatch()
	if len(batch) != 2 || string(batch[0].Payload) != "first" || string(batch[1].Payload) != "XXXXX" {
		t.Fatalf("delivered %q, want the bytes as of each Send", batch)
	}
	for i := 0; i < 8; i++ {
		tr.Send(0, 1, []byte("overwrite"), false)
	}
	if string(batch[0].Payload) != "first" || string(batch[1].Payload) != "XXXXX" {
		t.Fatalf("later Sends overwrote the current batch: %q", batch)
	}
	// Appending to a delivered payload must not spill into the slab.
	_ = append(batch[0].Payload, "!!!!!!!!"...)
	for _, p := range drain(tr) {
		if string(p.Payload) != "overwrite" {
			t.Fatalf("delivered %q, want %q", p.Payload, "overwrite")
		}
	}
}
