package rsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// MsgKind is the wire-level message type of the replicated service: the
// client request/response pair plus the three Bracha agreement phases.
type MsgKind uint8

const (
	// KindRequest is a client request carrying the value to be ordered.
	KindRequest MsgKind = iota + 1
	// KindInit is the leader's Bracha INIT proposing an order.
	KindInit
	// KindEcho is the Bracha witness phase.
	KindEcho
	// KindReady is the Bracha delivery-commitment phase.
	KindReady
	// KindResponse is a replica's answer to the client.
	KindResponse
)

func (k MsgKind) String() string {
	switch k {
	case KindRequest:
		return "REQUEST"
	case KindInit:
		return "INIT"
	case KindEcho:
		return "ECHO"
	case KindReady:
		return "READY"
	case KindResponse:
		return "RESPONSE"
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

// MaxValueLen bounds the encoded value: requests are short ordered commands,
// and the bound keeps a malformed length prefix from allocating unbounded
// memory in Decode.
const MaxValueLen = 1 << 12

// WireMsg is one protocol message as carried by the transport. From is the
// sender's replica slot, or ClientID for the client.
type WireMsg struct {
	Kind    MsgKind
	Probe   uint64 // client probe (request) sequence number
	Attempt uint8  // leader-rotation attempt within the probe
	From    int32
	Value   string
}

// wire layout: kind(1) probe(8) attempt(1) from(4) vlen(2) value(vlen)
const headerLen = 1 + 8 + 1 + 4 + 2

// Encode serializes m. It panics if the value exceeds MaxValueLen (a caller
// bug: the service never orders values that long).
func (m WireMsg) Encode() []byte { return m.AppendEncode(nil) }

// AppendEncode appends the serialization of m to dst and returns the
// extended buffer; it panics like Encode.
func (m WireMsg) AppendEncode(dst []byte) []byte {
	if len(m.Value) > MaxValueLen {
		panic(fmt.Sprintf("rsm: value length %d exceeds MaxValueLen", len(m.Value)))
	}
	dst = append(slices.Grow(dst, headerLen+len(m.Value)), byte(m.Kind))
	dst = binary.BigEndian.AppendUint64(dst, m.Probe)
	dst = append(dst, m.Attempt)
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.From))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Value)))
	return append(dst, m.Value...)
}

// ErrBadMessage reports a malformed wire message.
var ErrBadMessage = errors.New("rsm: malformed wire message")

// wireView is a parsed wire message whose Value aliases the frame: the
// probe loop reads messages through it without allocating.
type wireView struct {
	Kind    MsgKind
	Probe   uint64
	Attempt uint8
	From    int32
	Value   []byte
}

// parse checks and splits one frame. Every field is bounds-checked: a
// truncated, oversized, or unknown-kind payload yields ErrBadMessage, never
// a panic — the fuzz target FuzzWireMsg enforces this through Decode.
func parse(b []byte) (wireView, error) {
	if len(b) < headerLen {
		return wireView{}, fmt.Errorf("%w: %d bytes, want >= %d", ErrBadMessage, len(b), headerLen)
	}
	k := MsgKind(b[0])
	if k < KindRequest || k > KindResponse {
		return wireView{}, fmt.Errorf("%w: unknown kind %d", ErrBadMessage, b[0])
	}
	vlen := int(binary.BigEndian.Uint16(b[14:]))
	if vlen > MaxValueLen {
		return wireView{}, fmt.Errorf("%w: value length %d exceeds %d", ErrBadMessage, vlen, MaxValueLen)
	}
	if len(b) != headerLen+vlen {
		return wireView{}, fmt.Errorf("%w: %d bytes, want %d", ErrBadMessage, len(b), headerLen+vlen)
	}
	return wireView{
		Kind:    k,
		Probe:   binary.BigEndian.Uint64(b[1:]),
		Attempt: b[9],
		From:    int32(binary.BigEndian.Uint32(b[10:])),
		Value:   b[headerLen:],
	}, nil
}

// Decode parses one wire message into an owned WireMsg; see parse for the
// checks.
func Decode(b []byte) (WireMsg, error) {
	v, err := parse(b)
	if err != nil {
		return WireMsg{}, err
	}
	return WireMsg{Kind: v.Kind, Probe: v.Probe, Attempt: v.Attempt, From: v.From, Value: string(v.Value)}, nil
}
