package rsm

import (
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	msgs := []WireMsg{
		{Kind: KindRequest, Probe: 1, Attempt: 0, From: int32(ClientID), Value: "v1"},
		{Kind: KindInit, Probe: 42, Attempt: 3, From: 0, Value: ""},
		{Kind: KindEcho, Probe: 1 << 60, Attempt: 255, From: 1 << 20, Value: "x"},
		{Kind: KindReady, Probe: 0, Attempt: 1, From: -1, Value: strings.Repeat("a", MaxValueLen)},
		{Kind: KindResponse, Probe: 7, Attempt: 2, From: 6, Value: "byz"},
	}
	for _, m := range msgs {
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("Decode(%v.Encode()): %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"short":     {1, 2, 3},
		"bad kind":  append([]byte{0}, make([]byte, headerLen-1)...),
		"kind high": append([]byte{99}, make([]byte, headerLen-1)...),
		"truncated": (WireMsg{Kind: KindEcho, Value: "hello"}).Encode()[:headerLen+2],
		"trailing":  append((WireMsg{Kind: KindEcho, Value: "h"}).Encode(), 0),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted %v", name, b)
		}
	}
	// Oversized length prefix.
	b := (WireMsg{Kind: KindEcho, Value: "h"}).Encode()
	b[14], b[15] = 0xff, 0xff
	if _, err := Decode(b); err == nil {
		t.Error("oversized length prefix accepted")
	}
}

// FuzzWireMsg asserts Decode never panics and that every accepted payload
// re-encodes to the identical bytes (a parsed message is canonical), both
// into a fresh buffer and appended after existing bytes.
func FuzzWireMsg(f *testing.F) {
	f.Add([]byte{})
	f.Add((WireMsg{Kind: KindRequest, Probe: 9, From: int32(ClientID), Value: "v9"}).Encode())
	f.Add((WireMsg{Kind: KindResponse, Probe: 1, Attempt: 4, From: 3, Value: "byz"}).Encode())
	f.Add(append([]byte{5}, make([]byte, headerLen)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		if got := m.AppendEncode(nil); string(got) != string(b) {
			t.Fatalf("accepted payload not canonical: % x -> %+v -> % x", b, m, got)
		}
		prefix := []byte("prefix")
		if got := m.AppendEncode(prefix); string(got) != "prefix"+string(b) {
			t.Fatalf("AppendEncode after a prefix: % x, want prefix + % x", got, b)
		}
	})
}
