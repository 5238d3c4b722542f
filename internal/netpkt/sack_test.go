package netpkt

import "testing"

func TestTCPSACKRoundTrip(t *testing.T) {
	h := TCPHeader{
		SrcPort: 5000, DstPort: 6000, Seq: 100, Ack: 0xfffffff0,
		Flags: TCPAck, Window: 4096, NSACK: 3,
		SACK: [MaxSACKBlocks]SACKBlock{{10, 20}, {0xfffffff8, 8}, {40, 50}},
	}
	b := make([]byte, h.MarshalLen())
	if len(b) != TCPHeaderLen+4+3*8 {
		t.Fatalf("marshal len = %d", len(b))
	}
	h.Marshal(b)
	got, err := ParseTCP(b)
	if err != nil {
		t.Fatal(err)
	}
	h.DataOff = len(b)
	if got != h {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, h)
	}
}

func TestTCPSYNOptionsRoundTrip(t *testing.T) {
	h := TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPSyn, MSS: 1460, SACKPermitted: true}
	b := make([]byte, h.MarshalLen())
	h.Marshal(b)
	got, err := ParseTCP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.MSS != 1460 || !got.SACKPermitted || got.NSACK != 0 || got.DataOff != 28 {
		t.Fatalf("tcp = %+v", got)
	}
}

// TestTCPSACKCappedByOptionSpace: with MSS and SACK-permitted present only
// three blocks fit in the 40 option bytes; Marshal keeps the first three.
func TestTCPSACKCappedByOptionSpace(t *testing.T) {
	h := TCPHeader{Flags: TCPAck, MSS: 1460, SACKPermitted: true, NSACK: 4,
		SACK: [MaxSACKBlocks]SACKBlock{{1, 2}, {3, 4}, {5, 6}, {7, 8}}}
	if n := h.MarshalLen(); n != 56 {
		t.Fatalf("marshal len = %d, want 56", n)
	}
	b := make([]byte, h.MarshalLen())
	h.Marshal(b)
	got, err := ParseTCP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NSACK != 3 || got.SACK[2] != (SACKBlock{5, 6}) {
		t.Fatalf("tcp = %+v", got)
	}
}

func TestTCPSACKBadLengthIgnored(t *testing.T) {
	b := make([]byte, 32)
	h := TCPHeader{Flags: TCPAck}
	h.Marshal(b[:20])
	b[12] = uint8(32/4) << 4
	b[20], b[21] = tcpOptSACK, 7 // not 2 + 8n
	b[27] = tcpOptNOP
	got, err := ParseTCP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NSACK != 0 {
		t.Fatalf("malformed SACK option parsed as %d blocks", got.NSACK)
	}
}

// FuzzParseTCP feeds arbitrary bytes to ParseTCP. Whatever parses must
// survive Marshal -> ParseTCP with every field it understood intact; the
// only permitted loss is SACK blocks beyond what the option space holds
// next to the other options (Marshal's documented cap).
func FuzzParseTCP(f *testing.F) {
	ack := TCPHeader{SrcPort: 80, DstPort: 1234, Seq: 7, Ack: 9, Flags: TCPAck, Window: 100, NSACK: 2,
		SACK: [MaxSACKBlocks]SACKBlock{{100, 200}, {300, 400}}}
	syn := TCPHeader{Flags: TCPSyn, MSS: 536, SACKPermitted: true}
	for _, h := range []TCPHeader{ack, syn} {
		b := make([]byte, h.MarshalLen())
		h.Marshal(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ParseTCP(b)
		if err != nil {
			return
		}
		if h.DataOff < TCPHeaderLen || h.DataOff > len(b) || h.NSACK > MaxSACKBlocks {
			t.Fatalf("parsed header out of range: %+v (len %d)", h, len(b))
		}
		out := make([]byte, h.MarshalLen())
		if len(out) > 60 {
			t.Fatalf("marshal len %d exceeds the 60-byte header", len(out))
		}
		h.Marshal(out)
		got, err := ParseTCP(out)
		if err != nil {
			t.Fatalf("re-parse of marshalled %+v: %v", h, err)
		}
		want := h
		want.DataOff = len(out)
		want.NSACK = uint8(want.sackFit())
		for i := int(want.NSACK); i < MaxSACKBlocks; i++ {
			want.SACK[i], got.SACK[i] = SACKBlock{}, SACKBlock{}
		}
		if got != want {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	})
}
