package tcpeng

import (
	"encoding/binary"
	"testing"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
)

// fuzzRecLen is the fixed head of one fuzz record (see FuzzSegmentIn).
const fuzzRecLen = 12

// sink completes everything e sent towards IP without delivering it:
// sends complete, deliver cookies go back to the pipe's pool.
func (pi *pipe) sink(e *Engine) {
	for _, r := range e.DrainToIP() {
		switch r.Op {
		case msg.OpIPSend:
			e.FromIP(msg.Req{ID: r.ID, Op: msg.OpIPSendDone, Status: msg.StatusOK}, pi.now)
		case msg.OpIPDeliverDone:
			ptrs, ok := pi.inFlight[r.ID]
			if !ok {
				pi.badDone++
				continue
			}
			delete(pi.inFlight, r.ID)
			for _, ptr := range ptrs {
				_ = pi.rxPool.Free(ptr)
			}
		}
	}
}

// fuzzSegment builds one segment from a record, relative to the
// connection's current sequence state: seq from rcvNxt, ack and SACK
// blocks from sndUna.
func fuzzSegment(rec []byte, local, remote uint16, rcvNxt, sndUna uint32) (netpkt.TCPHeader, int) {
	th := netpkt.TCPHeader{
		SrcPort: remote, DstPort: local,
		Flags:  rec[0] & 0x1f,
		Seq:    rcvNxt + uint32(int32(int16(binary.BigEndian.Uint16(rec[1:3])))),
		Ack:    sndUna + uint32(int32(int16(binary.BigEndian.Uint16(rec[3:5])))),
		Window: uint16(rec[5]) << 8,
		NSACK:  rec[7] % (netpkt.MaxSACKBlocks + 1),
	}
	left := sndUna + uint32(int32(int16(binary.BigEndian.Uint16(rec[8:10]))))
	width := uint32(binary.BigEndian.Uint16(rec[10:12]))
	for i := range th.SACK[:th.NSACK] {
		th.SACK[i] = netpkt.SACKBlock{Left: left, Right: left + width}
		left += 2 * width
	}
	return th, min(int(rec[6])*8, 1400)
}

// FuzzSegmentIn feeds arbitrary segments into an established connection
// that has data outstanding. Each input is a series of records, one
// segment each: byte 0 holds the TCP flags (bits 0-4), a 5 ms clock
// advance with a Tick (bit 5) and GRO-style delivery as a three-segment
// merged run (bit 6); bytes 1-2 and 3-4 are the seq and ack offsets from
// rcvNxt and sndUna; byte 5 the window's high byte; byte 6 the payload
// length in 8-byte units; byte 7 the SACK block count; bytes 8-11 the
// first block's offset from sndUna and the blocks' width. After every
// segment nothing may have panicked, sndUna <= sndNxt, the scoreboard
// and the out-of-order queue are consistent and inside the window, and
// every deliver cookie is referenced exactly as often as the engine
// counts — no cookie released twice, none leaked.
func FuzzSegmentIn(f *testing.F) {
	f.Add([]byte{0x10, 0, 0, 0, 0, 0xff, 100, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		pi := newPipe(t, true)
		aBufs := captureBufs(pi.a)
		captureBufs(pi.b)
		csock, _ := pi.connectPair(9400)
		pi.trySend(pi.a, aBufs, csock, pattern(20000))
		pi.sink(pi.a)
		p := pi.a.pcbOf(csock)
		local, remote := p.localPort, p.remotePort
		rcvNxt, sndUna := p.rcvNxt, p.sndUna
		payload := pattern(1400)
		firstID := pi.deliverID + 1 // every later delivery goes to a
		for n := 0; len(in) >= fuzzRecLen && n < 64; n++ {
			rec := in[:fuzzRecLen]
			in = in[fuzzRecLen:]
			if p := pi.a.pcbOf(csock); p != nil && p.fourTuple != (fourTuple{}) {
				rcvNxt, sndUna = p.rcvNxt, p.sndUna
			}
			th, plen := fuzzSegment(rec, local, remote, rcvNxt, sndUna)
			pieces := 1
			if rec[0]&0x40 != 0 && plen >= 3 && th.Flags&^(netpkt.TCPAck|netpkt.TCPPsh) == 0 {
				pieces = 3
			}
			var run [][]byte
			for i, at := 0, 0; i < pieces; i++ {
				n := plen / pieces
				if i == pieces-1 {
					n = plen - at
				}
				h := th
				h.Seq += uint32(at)
				seg := make([]byte, h.MarshalLen()+n)
				h.Marshal(seg)
				copy(seg[h.MarshalLen():], payload[at:at+n])
				run = append(run, seg)
				at += n
			}
			pi.deliverRun(pi.a, pi.bIP, run)
			if rec[0]&0x20 != 0 {
				pi.now = pi.now.Add(5 * time.Millisecond)
				pi.a.Tick(pi.now)
			}
			pi.sink(pi.a)
			pi.a.DrainToFront()
			checkInvariants(t, pi.a)
			if pi.badDone != 0 {
				t.Fatalf("record %d: %d deliver cookies released twice", n, pi.badDone)
			}
			for id := range pi.a.deliverRefs {
				if _, ok := pi.inFlight[id]; !ok {
					t.Fatalf("record %d: engine holds cookie %d the pipe has reclaimed", n, id)
				}
			}
			for id := range pi.inFlight {
				if _, ok := pi.a.deliverRefs[id]; id >= firstID && !ok {
					t.Fatalf("record %d: cookie %d leaked (never released, no reference)", n, id)
				}
			}
		}
	})
}
