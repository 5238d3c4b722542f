package tcpeng

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// trySend queues as much of data as the socket buffer has room for in one
// send request and returns the bytes queued.
func (pi *pipe) trySend(e *Engine, bufs bufMap, sock uint32, data []byte) int {
	pi.t.Helper()
	if bufs[sock] == nil {
		if rep := pi.call(e, msg.Req{Op: msg.OpSockBufEnsure, Flow: sock}); rep.Status != msg.StatusOK {
			pi.t.Fatalf("buf ensure for %d: %d", sock, rep.Status)
		}
	}
	buf := bufs[sock]
	var ptrs []shm.RichPtr
	off := 0
	for len(ptrs) < msg.MaxPtrs-1 && off < len(data) {
		chunk, ok := buf.Get()
		if !ok {
			break
		}
		n := min(len(data)-off, buf.ChunkSize())
		ptr, err := buf.Write(chunk, data[off:off+n])
		if err != nil {
			pi.t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
		off += n
	}
	if len(ptrs) == 0 {
		return 0
	}
	r := msg.Req{Op: msg.OpSockSend, Flow: sock}
	r.SetChain(ptrs)
	if rep := pi.call(e, r); rep.Status != msg.StatusOK {
		pi.t.Fatalf("send: %d", rep.Status)
	}
	return off
}

// tryRecv takes whatever a nonblocking socket holds (nil when nothing).
func (pi *pipe) tryRecv(e *Engine, sock uint32) []byte {
	pi.t.Helper()
	rep := pi.call(e, msg.Req{Op: msg.OpSockRecv, Flow: sock})
	if rep.Status == msg.StatusErrAgain {
		return nil
	}
	if rep.Op != msg.OpSockRecvData || rep.Status != msg.StatusOK {
		pi.t.Fatalf("recv: op=%v status=%d", rep.Op, rep.Status)
	}
	var out []byte
	for _, ptr := range rep.Chain() {
		v, err := pi.space.View(ptr)
		if err != nil {
			pi.t.Fatal(err)
		}
		out = append(out, v...)
	}
	done := msg.Req{Op: msg.OpSockRecvDone, Flow: sock}
	done.Arg[0] = uint64(len(out))
	e.FromFront(done, pi.now)
	return out
}

// randomFaults is a seeded wire schedule: each segment is dropped,
// duplicated, held back a step (so later segments overtake it) or passed.
func randomFaults(rng *rand.Rand, drop, dup, delay float64) func(string, [][]byte) [][]byte {
	held := map[string][][]byte{}
	return func(dir string, segs [][]byte) [][]byte {
		var out [][]byte
		late := held[dir]
		held[dir] = nil
		for _, s := range segs {
			switch r := rng.Float64(); {
			case r < drop:
			case r < drop+dup:
				out = append(out, s, s)
			case r < drop+dup+delay:
				held[dir] = append(held[dir], s)
			default:
				out = append(out, s)
			}
		}
		return append(out, late...)
	}
}

// exchange moves up and down concurrently over the pipe (a->b and b->a)
// and returns what each receiver got, failing if the step budget runs out.
func (pi *pipe) exchange(csock, child uint32, aBufs, bBufs bufMap, up, down []byte) (gotUp, gotDown []byte) {
	pi.t.Helper()
	pi.setNonblock(pi.b, child)
	pi.setNonblock(pi.a, csock)
	sentUp, sentDown := 0, 0
	for step := 0; len(gotUp) < len(up) || len(gotDown) < len(down); step++ {
		if step > 200000 {
			pi.t.Fatalf("stalled: up %d/%d down %d/%d (a %+v, b %+v)",
				len(gotUp), len(up), len(gotDown), len(down), pi.a.Stats(), pi.b.Stats())
		}
		if sentUp < len(up) {
			sentUp += pi.trySend(pi.a, aBufs, csock, up[sentUp:min(len(up), sentUp+8192)])
		}
		if sentDown < len(down) {
			sentDown += pi.trySend(pi.b, bBufs, child, down[sentDown:min(len(down), sentDown+8192)])
		}
		gotUp = append(gotUp, pi.tryRecv(pi.b, child)...)
		gotDown = append(gotDown, pi.tryRecv(pi.a, csock)...)
		pi.aFront, pi.bFront = pi.aFront[:0], pi.bFront[:0] // readiness events
	}
	return gotUp, gotDown
}

// TestTransferRandomFaultsVsReference is the model test for loss recovery:
// under seeded schedules of drop, duplication and reordering in both
// directions, with and without TSO and GRO merging, each received stream
// must equal the reference — the stream the other side sent.
func TestTransferRandomFaultsVsReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		tso, gro := seed%2 == 0, seed%3 != 0
		t.Run(fmt.Sprintf("seed=%d/tso=%v/gro=%v", seed, tso, gro), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pi := newPipe(t, tso)
			pi.gro = gro
			aBufs := captureBufs(pi.a)
			bBufs := captureBufs(pi.b)
			csock, child := pi.connectPair(9300)
			pi.fault = randomFaults(rng, 0.01+0.02*float64(seed%4), 0.02, 0.04)
			up, down := make([]byte, 400_000), make([]byte, 250_000)
			rng.Read(up)
			rng.Read(down)
			gotUp, gotDown := pi.exchange(csock, child, aBufs, bBufs, up, down)
			if !bytes.Equal(gotUp, up) {
				t.Fatalf("a->b stream differs from the reference at byte %d", firstDiff(gotUp, up))
			}
			if !bytes.Equal(gotDown, down) {
				t.Fatalf("b->a stream differs from the reference at byte %d", firstDiff(gotDown, down))
			}
			if pi.badDone != 0 {
				t.Fatalf("%d deliver cookies released twice or never issued", pi.badDone)
			}
			as, bs := pi.a.Stats(), pi.b.Stats()
			if as.Retransmits == 0 || bs.Retransmits == 0 || as.OOOQueued == 0 || bs.OOOQueued == 0 {
				t.Fatalf("the schedule did not exercise recovery both ways: a %+v, b %+v", as, bs)
			}
			t.Logf("a: %d retx (%d episodes, %d RTO, %d TLP); b: %d retx (%d episodes, %d RTO, %d TLP)",
				as.Retransmits, as.FastRetx, as.RTOFires, as.TLPProbes, bs.Retransmits, bs.FastRetx, bs.RTOFires, bs.TLPProbes)
			checkInvariants(t, pi.a)
			checkInvariants(t, pi.b)
		})
	}
}

// firstBurstLoss drops the k-th data-bearing wire segment a->b, once.
func firstBurstLoss(k int) func(string, [][]byte) [][]byte {
	seen := 0
	return func(dir string, segs [][]byte) [][]byte {
		if dir != "a->b" {
			return segs
		}
		var out [][]byte
		for _, s := range segs {
			if th, err := netpkt.ParseTCP(s); err == nil && len(s) > th.DataOff {
				seen++
				if seen == k {
					continue
				}
			}
			out = append(out, s)
		}
		return out
	}
}

// TestMidWindowLossGROZeroRTO: one frame lost in the middle of a TSO burst,
// with the run behind the hole delivered GRO-merged as one out-of-order
// delivery, is repaired by fast recovery alone — no retransmission
// timeout.
func TestMidWindowLossGROZeroRTO(t *testing.T) {
	pi := newPipe(t, true)
	pi.gro = true
	aBufs := captureBufs(pi.a)
	captureBufs(pi.b)
	csock, child := pi.connectPair(9301)
	pi.fault = firstBurstLoss(4)
	data := pattern(60000)
	pi.sendBytes(pi.a, aBufs, csock, data)
	if got := pi.recvBytes(pi.b, child, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("data corrupted at byte %d", firstDiff(got, data))
	}
	as, bs := pi.a.Stats(), pi.b.Stats()
	if bs.OOOQueued == 0 {
		t.Fatal("the run behind the hole was not kept out of order")
	}
	if as.FastRetx != 1 || as.Retransmits != 1 {
		t.Fatalf("recovery: %d episodes, %d retransmissions; want 1 and 1", as.FastRetx, as.Retransmits)
	}
	if as.RTOFires != 0 {
		t.Fatalf("%d RTO fires for a single mid-window loss", as.RTOFires)
	}
}

// stripSACKPerm turns the SACK-permitted option of every SYN into NOPs:
// the peer then looks like a stack without SACK.
func stripSACKPerm(dir string, segs [][]byte) [][]byte {
	for _, s := range segs {
		th, err := netpkt.ParseTCP(s)
		if err != nil || th.Flags&netpkt.TCPSyn == 0 {
			continue
		}
		for o := netpkt.TCPHeaderLen; o+1 < th.DataOff; {
			switch s[o] {
			case 0:
				o = th.DataOff
			case 1:
				o++
			default:
				if s[o] == 4 {
					s[o], s[o+1] = 1, 1
				}
				o += max(int(s[o+1]), 2)
			}
		}
	}
	return segs
}

// TestNewRenoWithoutSACK: against a peer that does not offer SACK, the
// receiver sends one duplicate ACK per wire segment of a GRO-merged
// out-of-order run, so the sender still gets its three duplicates and
// repairs a mid-window loss without a timeout.
func TestNewRenoWithoutSACK(t *testing.T) {
	pi := newPipe(t, true)
	pi.gro = true
	aBufs := captureBufs(pi.a)
	captureBufs(pi.b)
	pi.fault = stripSACKPerm
	csock, child := pi.connectPair(9302)
	if pi.a.pcbOf(csock).sackOK || pi.b.pcbOf(child).sackOK {
		t.Fatal("SACK negotiated although the SYN's offer was stripped")
	}
	loss := firstBurstLoss(4)
	pi.fault = func(dir string, segs [][]byte) [][]byte { return loss(dir, segs) }
	data := pattern(60000)
	pi.sendBytes(pi.a, aBufs, csock, data)
	if got := pi.recvBytes(pi.b, child, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("data corrupted at byte %d", firstDiff(got, data))
	}
	if as := pi.a.Stats(); as.FastRetx != 1 || as.RTOFires != 0 {
		t.Fatalf("NewReno: %d episodes, %d RTO fires; want 1 and 0", as.FastRetx, as.RTOFires)
	}
}

// TestTwoHolesOneEpisode: two frames lost from one window are both
// retransmitted within a single recovery episode (cwnd halves once), and
// neither costs a timeout.
func TestTwoHolesOneEpisode(t *testing.T) {
	pi := newPipe(t, true)
	aBufs := captureBufs(pi.a)
	captureBufs(pi.b)
	csock, child := pi.connectPair(9303)
	first, second := firstBurstLoss(3), firstBurstLoss(6)
	pi.fault = func(dir string, segs [][]byte) [][]byte { return second(dir, first(dir, segs)) }
	data := pattern(60000)
	pi.sendBytes(pi.a, aBufs, csock, data)
	if got := pi.recvBytes(pi.b, child, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("data corrupted at byte %d", firstDiff(got, data))
	}
	if as := pi.a.Stats(); as.FastRetx != 1 || as.Retransmits != 2 || as.RTOFires != 0 {
		t.Fatalf("%d episodes, %d retransmissions, %d RTO fires; want 1, 2, 0",
			as.FastRetx, as.Retransmits, as.RTOFires)
	}
}

// TestTailLossProbe: the last frame of a transfer is lost, so no later
// segment can reveal it. The tail-loss probe repairs it well before the
// RTO would.
func TestTailLossProbe(t *testing.T) {
	pi := newPipe(t, false)
	aBufs := captureBufs(pi.a)
	captureBufs(pi.b)
	csock, child := pi.connectPair(9304)
	// Warm up so the RTT estimate exists.
	pi.sendBytes(pi.a, aBufs, csock, pattern(20000))
	pi.recvBytes(pi.b, child, 20000)
	data := pattern(5 * MSS)
	pi.fault = firstBurstLoss(5)
	pi.sendBytes(pi.a, aBufs, csock, data)
	if got := pi.recvBytes(pi.b, child, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("data corrupted at byte %d", firstDiff(got, data))
	}
	if as := pi.a.Stats(); as.TLPProbes == 0 || as.RTOFires != 0 {
		t.Fatalf("tail loss: %d probes, %d RTO fires; want a probe and no RTO", as.TLPProbes, as.RTOFires)
	}
}

// TestHandoffDuringRecovery: both engines are live-updated in the middle
// of a recovery episode — the receiver while it holds out-of-order data,
// the sender while its scoreboard holds SACKed and lost entries — and the
// transfer still completes byte-exact with no timeout.
func TestHandoffDuringRecovery(t *testing.T) {
	pi := newPipe(t, true)
	aBufs := captureBufs(pi.a)
	captureBufs(pi.b)
	csock, child := pi.connectPair(9305)
	pi.fault = firstBurstLoss(3)
	if rep := pi.call(pi.a, msg.Req{Op: msg.OpSockBufEnsure, Flow: csock}); rep.Status != msg.StatusOK {
		t.Fatalf("buf ensure: %d", rep.Status)
	}
	data := pattern(8 * MSS)
	buf := aBufs[csock]
	var ptrs []shm.RichPtr
	for off := 0; off < len(data); off += buf.ChunkSize() {
		chunk, ok := buf.Get()
		if !ok {
			t.Fatal("socket buffer too small for the test burst")
		}
		ptr, err := buf.Write(chunk, data[off:min(len(data), off+buf.ChunkSize())])
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
	}
	send := msg.Req{ID: 1, Op: msg.OpSockSend, Flow: csock}
	send.SetChain(ptrs)
	pi.a.FromFront(send, pi.now)
	// a's burst crosses (one frame lost); b queues the rest out of order
	// and answers with SACKs.
	pi.moveDir(pi.a, pi.b, pi.aIP, pi.bIP, "a->b")
	if ls := pi.b.pcbOf(child).loss; ls == nil || len(ls.ooo) == 0 {
		t.Fatal("receiver holds no out-of-order data")
	}
	pi.swap(&pi.b)
	checkNoGhosts(t, pi.b, "receiver after swap")
	pi.moveDir(pi.b, pi.a, pi.bIP, pi.aIP, "b->a")
	if ls := pi.a.pcbOf(csock).loss; ls == nil || ls.sacked == 0 || ls.recovery != recFast {
		t.Fatal("sender is not in SACK recovery")
	}
	pi.swap(&pi.a)
	checkNoGhosts(t, pi.a, "sender after swap")
	if got := pi.recvBytes(pi.b, child, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("data corrupted across the swaps at byte %d", firstDiff(got, data))
	}
	if as := pi.a.Stats(); as.RTOFires != 0 {
		t.Fatalf("%d RTO fires across a handoff during recovery", as.RTOFires)
	}
}

// checkInvariants verifies every pcb's recovery state: the scoreboard tiles
// [sndUna, sndNxt) with consistent byte counters, the out-of-order queue is
// sorted, disjoint and inside the receive window, and every held deliver
// cookie is referenced exactly as often as the engine counts.
func checkInvariants(t testing.TB, e *Engine) {
	t.Helper()
	refs := map[uint64]int{}
	e.eachPCB(func(p *pcb) {
		if !netpkt.SeqLEQ(p.sndUna, p.sndNxt) {
			t.Fatalf("pcb %d: sndUna %d beyond sndNxt %d", p.id, p.sndUna, p.sndNxt)
		}
		for _, it := range p.rcvQ {
			if it.deliverID != 0 {
				refs[it.deliverID]++
			}
		}
		ls := p.loss
		if ls == nil {
			return
		}
		if len(ls.segs) > 0 {
			at := p.sndUna
			var sacked, lost uint32
			for _, s := range ls.segs {
				if s.start != at || !netpkt.SeqLT(s.start, s.end) {
					t.Fatalf("pcb %d: scoreboard entry [%d,%d) does not continue at %d", p.id, s.start, s.end, at)
				}
				at = s.end
				if s.flags&segSACKed != 0 {
					sacked += s.len()
				}
				if s.flags&segLost != 0 {
					lost += s.len()
				}
			}
			if at != p.sndNxt || sacked != ls.sacked || lost != ls.lost {
				t.Fatalf("pcb %d: scoreboard ends %d (sndNxt %d), sacked %d/%d, lost %d/%d",
					p.id, at, p.sndNxt, sacked, ls.sacked, lost, ls.lost)
			}
		}
		wndEnd := p.rcvNxt + e.rcvWnd(p)
		prev := p.rcvNxt + 1 // the first entry lies beyond a hole at rcvNxt
		for _, o := range ls.ooo {
			if netpkt.SeqLT(o.seq, prev) {
				t.Fatalf("pcb %d: out-of-order entry at %d not after %d (rcvNxt %d)", p.id, o.seq, prev, p.rcvNxt)
			}
			if o.payload.Len == 0 || netpkt.SeqLT(wndEnd, o.end()) {
				t.Fatalf("pcb %d: out-of-order entry [%d,%d) outside window end %d", p.id, o.seq, o.end(), wndEnd)
			}
			prev = o.end()
			if o.deliverID != 0 {
				refs[o.deliverID]++
			}
		}
	})
	if len(refs) != len(e.deliverRefs) {
		t.Fatalf("%d cookies referenced by queues, engine counts %d", len(refs), len(e.deliverRefs))
	}
	for id, n := range refs {
		if e.deliverRefs[id] != n {
			t.Fatalf("cookie %d: %d queue references, engine counts %d", id, n, e.deliverRefs[id])
		}
	}
}
