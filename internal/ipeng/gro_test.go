package ipeng

import (
	"testing"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// deliverTCPData injects one TCP data segment from the peer (ACK set, the
// given SACK blocks in its options) as a received frame.
func deliverTCPData(t *testing.T, e *Engine, pool *shm.Pool, seq uint32, payload []byte, sack ...netpkt.SACKBlock) {
	t.Helper()
	ptr, buf, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	th := netpkt.TCPHeader{SrcPort: 5000, DstPort: 80, Seq: seq, Ack: 1, Flags: netpkt.TCPAck, Window: 1000}
	th.NSACK = uint8(copy(th.SACK[:], sack))
	tlen := th.MarshalLen() + len(payload)
	eh := netpkt.EthHeader{Dst: selfM, Src: peerM, Type: netpkt.EtherTypeIPv4}
	eh.Marshal(buf)
	ih := netpkt.IPv4Header{
		TotalLen: uint16(netpkt.IPv4HeaderLen + tlen), TTL: 64,
		Proto: netpkt.ProtoTCP, Src: peerIP, Dst: selfIP,
	}
	ih.Marshal(buf[netpkt.EthHeaderLen:], true)
	l4 := buf[netpkt.EthHeaderLen+netpkt.IPv4HeaderLen:]
	th.Marshal(l4)
	copy(l4[th.MarshalLen():], payload)
	r := msg.Req{Op: msg.OpRxPacket}
	r.SetChain([]shm.RichPtr{ptr.Slice(0, uint32(netpkt.EthHeaderLen+netpkt.IPv4HeaderLen+tlen))})
	r.Arg[1] = msg.FlagCsumOK
	e.FromDriver("eth0", r, time.Now())
}

// groRuns drains the TCP deliveries and returns each one's segment count.
func groRuns(e *Engine) []int {
	var runs []int
	for _, d := range e.DrainToTCP() {
		if d.Op != msg.OpIPDeliver {
			continue
		}
		n := int(d.Arg[3])
		if n == 0 {
			n = 1
		}
		runs = append(runs, n)
	}
	return runs
}

// TestGROMergesIdenticalOptions: contiguous same-flow segments with the
// same options still coalesce into one delivery.
func TestGROMergesIdenticalOptions(t *testing.T) {
	e, space := newEngine(t, false)
	pool, _ := space.NewPool("rx.gro", 2048, 8)
	blk := netpkt.SACKBlock{Left: 5000, Right: 6000}
	deliverTCPData(t, e, pool, 100, make([]byte, 100), blk)
	deliverTCPData(t, e, pool, 200, make([]byte, 100), blk)
	if runs := groRuns(e); len(runs) != 1 || runs[0] != 2 {
		t.Fatalf("deliveries = %v, want one run of 2 segments", runs)
	}
}

// TestGROKeepsDifferentOptionsApart: the merged delivery carries only the
// lead header, so segments whose option bytes differ (here, their SACK
// blocks) must not merge — the second segment's SACK information would
// be lost.
func TestGROKeepsDifferentOptionsApart(t *testing.T) {
	e, space := newEngine(t, false)
	pool, _ := space.NewPool("rx.gro", 2048, 8)
	deliverTCPData(t, e, pool, 100, make([]byte, 100), netpkt.SACKBlock{Left: 5000, Right: 6000})
	deliverTCPData(t, e, pool, 200, make([]byte, 100), netpkt.SACKBlock{Left: 5000, Right: 7000})
	if runs := groRuns(e); len(runs) != 2 || runs[0] != 1 || runs[1] != 1 {
		t.Fatalf("deliveries = %v, want two single-segment deliveries", runs)
	}
}
