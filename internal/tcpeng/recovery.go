package tcpeng

// Loss recovery (docs/ARCHITECTURE.md "Loss recovery"). A lost frame costs
// about one round trip, not a retransmission timeout:
//
//   - The receiver keeps out-of-order data in a bounded queue (ooo) instead
//     of dropping it, advertises what it holds in SACK blocks, and ACKs at
//     once when a segment fills a gap.
//   - The sender keeps a scoreboard of its outstanding data (segs) in
//     sequence order, one entry per transmission unit with its last transmit
//     time. SACK blocks mark entries delivered; an entry is judged lost by
//     RFC 6675's rule (more than DupThresh-1 segments' worth of data SACKed
//     above it) or by RACK's (something sent after it was delivered and a
//     reordering window has passed). One recovery episode retransmits every
//     hole and halves cwnd once.
//   - A tail-loss probe and the RACK reordering timer share the
//     retransmission timer slot with the RTO, so a tail loss or a lost
//     retransmission costs a few RTTs instead of minRTO.
//   - An RTO marks the outstanding data lost in the scoreboard; nothing ever
//     rewinds sndNxt.
//
// Peers that do not negotiate SACK get NewReno: three duplicate ACKs start
// recovery and every partial ACK retransmits the next hole.
//
// All of it lives behind pcb.loss, allocated when a connection first sends
// data or first queues out-of-order data and dropped once it has nothing
// outstanding and nothing queued, so idle connections pay one nil pointer.

import (
	"time"

	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// Scoreboard entry flags.
const (
	segSACKed uint8 = 1 << iota // selectively acknowledged by the peer
	segLost                     // presumed lost, not yet retransmitted
	segRetx                     // retransmitted at least once
	segFIN                      // the FIN's sequence slot
)

// Recovery episodes.
const (
	recNone uint8 = iota
	recFast       // SACK (RFC 6675) or NewReno fast recovery
	recRTO        // after a retransmission timeout
)

// What the pcb's retransmission timer (rtoAt) currently stands for.
const (
	retxRTO uint8 = iota
	retxTLP       // tail-loss probe
	retxReo       // RACK reordering window expiry
)

const (
	dupThresh = 3
	// oooMaxSegs bounds the out-of-order queue's entries; its bytes are
	// bounded by the receive window.
	oooMaxSegs = 64
	// tlpMin floors the probe timeout a few wheel ticks above the
	// delayed-ACK delay.
	tlpMin = time.Millisecond
)

// txSeg is one scoreboard entry: the sequence range [start, end) as last
// transmitted at time at.
type txSeg struct {
	start, end uint32
	at         time.Time
	flags      uint8
}

func (s *txSeg) len() uint32 { return s.end - s.start }

// oooSeg is one out-of-order payload range, still living in IP's receive
// pool under deliverID (one reference per entry, as for rcvQ items).
type oooSeg struct {
	seq       uint32
	payload   shm.RichPtr
	deliverID uint64
}

func (o *oooSeg) end() uint32 { return o.seq + o.payload.Len }

// lossState is a connection's recovery state (see the file comment).
type lossState struct {
	// Receiver: sorted, disjoint, inside [rcvNxt, rcvNxt+rcvWnd).
	ooo     []oooSeg
	oooLast uint32 // seq of the latest queued arrival (first SACK block)

	// Sender: segs covers [sndUna, sndNxt) contiguously, in order.
	segs      []txSeg
	sacked    uint32 // bytes of segs flagged segSACKed
	lost      uint32 // bytes of segs flagged segLost
	recovery  uint8
	recoverPt uint32 // sndNxt when the episode began
	force     bool   // the next retransmission goes out regardless of cwnd
	tlpOut    bool   // a probe is outstanding (one per ACK advance)
	timer     uint8  // retxRTO / retxTLP / retxReo
	dupAcks   int    // NewReno duplicate-ACK count
	rackAt    time.Time
	rackEnd   uint32    // end of the most recently sent delivered entry
	reoAt     time.Time // earliest RACK reordering deadline; zero = none
}

// lossFor returns p's loss state, allocating it on first use.
func (e *Engine) lossFor(p *pcb) *lossState {
	if p.loss == nil {
		p.loss = &lossState{}
	}
	return p.loss
}

// releaseLoss drops p's loss state once nothing is outstanding and nothing
// is queued out of order.
func (e *Engine) releaseLoss(p *pcb) {
	if ls := p.loss; ls != nil && len(ls.segs) == 0 && len(ls.ooo) == 0 {
		p.loss = nil
	}
}

// dropLoss discards p's loss state outright (teardown).
func (e *Engine) dropLoss(p *pcb) {
	e.dropOOO(p)
	p.loss = nil
}

// dropOOO empties the out-of-order queue, giving its receive-pool
// references back.
func (e *Engine) dropOOO(p *pcb) {
	ls := p.loss
	if ls == nil {
		return
	}
	for _, o := range ls.ooo {
		e.releaseDeliver(o.deliverID)
	}
	ls.ooo = ls.ooo[:0]
}

// --- Receiver -------------------------------------------------------------

// oooInsert queues the part of [seq, seq+ptr.Len) not already queued, one
// entry per uncovered gap, each holding a reference on deliverID. False
// when nothing was queued.
func (e *Engine) oooInsert(p *pcb, seq uint32, ptr shm.RichPtr, deliverID uint64) bool {
	ls := e.lossFor(p)
	s, end := seq, seq+ptr.Len
	i := 0
	for i < len(ls.ooo) && netpkt.SeqLEQ(ls.ooo[i].end(), s) {
		i++
	}
	queued := false
	for netpkt.SeqLT(s, end) {
		if i < len(ls.ooo) && netpkt.SeqLEQ(ls.ooo[i].seq, s) {
			s = ls.ooo[i].end() // already held
			i++
			continue
		}
		stop := end
		if i < len(ls.ooo) && netpkt.SeqLT(ls.ooo[i].seq, stop) {
			stop = ls.ooo[i].seq
		}
		if len(ls.ooo) >= oooMaxSegs {
			e.stats.DropsOOO++
			break
		}
		ls.ooo = append(ls.ooo, oooSeg{})
		copy(ls.ooo[i+1:], ls.ooo[i:])
		ls.ooo[i] = oooSeg{seq: s, payload: ptr.Slice(s-seq, stop-seq), deliverID: deliverID}
		e.retainDeliver(deliverID)
		queued = true
		i++
		s = stop
	}
	if queued {
		ls.oooLast = seq
	}
	return queued
}

// drainOOO moves queued data that rcvNxt has reached into rcvQ.
func (e *Engine) drainOOO(p *pcb) {
	ls := p.loss
	n := 0
	for n < len(ls.ooo) && netpkt.SeqLEQ(ls.ooo[n].seq, p.rcvNxt) {
		o := ls.ooo[n]
		n++
		if netpkt.SeqLEQ(o.end(), p.rcvNxt) {
			e.releaseDeliver(o.deliverID)
			continue
		}
		skip := p.rcvNxt - o.seq
		take := o.payload.Len - skip
		p.rcvQ = append(p.rcvQ, rxItem{payload: o.payload.Slice(skip, o.payload.Len), deliverID: o.deliverID})
		p.rcvQueued += take
		p.rcvNxt += take
		e.stats.BytesIn += uint64(take)
	}
	ls.ooo = ls.ooo[:copy(ls.ooo, ls.ooo[n:])]
}

// sackInto fills th's SACK blocks from the out-of-order queue: contiguous
// entries merge into one block, the block holding the latest arrival comes
// first (RFC 2018), the rest follow in sequence order up to the cap.
func (ls *lossState) sackInto(th *netpkt.TCPHeader) {
	n := 0
	for i := 0; i < len(ls.ooo); {
		blk := netpkt.SACKBlock{Left: ls.ooo[i].seq, Right: ls.ooo[i].end()}
		for i++; i < len(ls.ooo) && ls.ooo[i].seq == blk.Right; i++ {
			blk.Right = ls.ooo[i].end()
		}
		switch {
		case netpkt.SeqBetween(ls.oooLast, blk.Left, blk.Right):
			copy(th.SACK[1:], th.SACK[:min(n, netpkt.MaxSACKBlocks-1)])
			th.SACK[0] = blk
			n = min(n+1, netpkt.MaxSACKBlocks)
		case n < netpkt.MaxSACKBlocks:
			th.SACK[n] = blk
			n++
		}
	}
	th.NSACK = uint8(n)
}

// hasSACK reports whether p's outgoing ACKs carry SACK blocks.
func (p *pcb) hasSACK() bool {
	return p.sackOK && p.loss != nil && len(p.loss.ooo) > 0
}

// segPayload is the payload of one wire segment: the MSS less the option
// bytes the SACK blocks take, so every frame still fits the MTU.
func (e *Engine) segPayload(p *pcb) uint32 {
	if !p.hasSACK() {
		return uint32(p.mss)
	}
	var th netpkt.TCPHeader
	p.loss.sackInto(&th)
	return uint32(p.mss) - uint32(th.SACKOptLen())
}

// --- Sender scoreboard ----------------------------------------------------

// split cuts entry i at seq (strictly inside it) into two entries with
// the same flags and transmit time.
func (ls *lossState) split(i int, seq uint32) {
	ls.segs = append(ls.segs, txSeg{})
	copy(ls.segs[i+1:], ls.segs[i:])
	ls.segs[i].end = seq
	ls.segs[i+1].start = seq
}

// delivered advances RACK's most recently sent delivered entry.
func (ls *lossState) delivered(s *txSeg) {
	if s.at.After(ls.rackAt) || (s.at.Equal(ls.rackAt) && netpkt.SeqLT(ls.rackEnd, s.end)) {
		ls.rackAt, ls.rackEnd = s.at, s.end
	}
}

// sentBefore reports whether s went out before RACK's delivered entry.
func (ls *lossState) sentBefore(s *txSeg) bool {
	return s.at.Before(ls.rackAt) || (s.at.Equal(ls.rackAt) && netpkt.SeqLEQ(s.end, ls.rackEnd))
}

func (ls *lossState) markLost(s *txSeg) {
	if s.flags&(segSACKed|segLost) == 0 {
		s.flags |= segLost
		ls.lost += s.len()
	}
}

// markHeadLost marks up to one MSS at the bottom of the scoreboard lost
// (NewReno's retransmission on the third duplicate or a partial ACK).
func (ls *lossState) markHeadLost(mss uint32) {
	for i := range ls.segs {
		if ls.segs[i].flags&segSACKed != 0 {
			continue
		}
		if ls.segs[i].len() > mss {
			ls.split(i, ls.segs[i].start+mss)
		}
		ls.markLost(&ls.segs[i])
		ls.force = true
		return
	}
}

// markAllLost marks every outstanding entry lost. forget also drops the
// SACK marks (RFC 6675 resets the scoreboard on a timeout, in case the
// receiver reneged on what it SACKed).
func (ls *lossState) markAllLost(forget bool) {
	for i := range ls.segs {
		s := &ls.segs[i]
		if forget && s.flags&segSACKed != 0 {
			s.flags &^= segSACKed
			ls.sacked -= s.len()
		}
		ls.markLost(s)
	}
}

// ackTo drops the entries the cumulative ACK covers and returns the last
// one it reached (fully or partly), for the RTT sample; ok is false when
// it reached none.
func (ls *lossState) ackTo(ack uint32) (last txSeg, ok bool) {
	n := 0
	for n < len(ls.segs) {
		s := &ls.segs[n]
		if !netpkt.SeqLT(s.start, ack) {
			break
		}
		last, ok = *s, true
		cut := s.len()
		if netpkt.SeqLT(ack, s.end) {
			cut = ack - s.start
		}
		if s.flags&segSACKed != 0 {
			ls.sacked -= cut
		} else {
			ls.delivered(s)
		}
		if s.flags&segLost != 0 {
			ls.lost -= cut
		}
		if cut < s.len() {
			s.start = ack
			break
		}
		n++
	}
	ls.segs = ls.segs[:copy(ls.segs, ls.segs[n:])]
	return last, ok
}

// applySACK marks the ranges of th's SACK blocks delivered. Blocks outside
// (sndUna, sndNxt] are ignored. Returns whether anything new was SACKed.
func (e *Engine) applySACK(p *pcb, th *netpkt.TCPHeader) bool {
	ls := p.loss
	if ls == nil || !p.sackOK {
		return false
	}
	fresh := false
	for b := 0; b < int(th.NSACK); b++ {
		l, r := th.SACK[b].Left, th.SACK[b].Right
		if !netpkt.SeqLT(l, r) || !netpkt.SeqLT(p.sndUna, r) || netpkt.SeqLT(p.sndNxt, r) {
			continue
		}
		if netpkt.SeqLT(l, p.sndUna) {
			l = p.sndUna
		}
		for i := 0; i < len(ls.segs); i++ {
			s := &ls.segs[i]
			if netpkt.SeqLEQ(s.end, l) || s.flags&segSACKed != 0 {
				continue
			}
			if netpkt.SeqLEQ(r, s.start) {
				break
			}
			if netpkt.SeqLT(s.start, l) {
				ls.split(i, l)
				continue // the upper half is entry i+1
			}
			if netpkt.SeqLT(r, s.end) {
				ls.split(i, r)
				s = &ls.segs[i]
			}
			if s.flags&segLost != 0 {
				s.flags &^= segLost
				ls.lost -= s.len()
			}
			s.flags |= segSACKed
			ls.sacked += s.len()
			ls.delivered(s)
			fresh = true
		}
	}
	return fresh
}

// detectLoss runs both loss rules over the scoreboard (SACK peers), starts
// a recovery episode when something is newly lost, and leaves in reoAt the
// earliest time a RACK candidate will have waited out its reordering
// window.
func (e *Engine) detectLoss(p *pcb) {
	ls := p.loss
	ls.reoAt = time.Time{}
	if !p.sackOK || (ls.sacked == 0 && ls.recovery == recNone) {
		return
	}
	rtt := p.srtt
	if rtt == 0 {
		rtt = minRTO
	}
	wait := rtt + rtt/4
	thresh := uint32(dupThresh-1) * uint32(p.mss)
	above := uint32(0)
	fresh := false
	for i := len(ls.segs) - 1; i >= 0; i-- {
		s := &ls.segs[i]
		if s.flags&segSACKed != 0 {
			above += s.len()
			continue
		}
		if s.flags&segLost != 0 {
			continue
		}
		if above > thresh && s.flags&segRetx == 0 {
			// RFC 6675 IsLost. A retransmission is judged by RACK alone:
			// the SACKs above it may all predate it.
			ls.markLost(s)
			fresh = true
			continue
		}
		if !ls.sentBefore(s) {
			continue
		}
		if due := s.at.Add(wait); e.now.Before(due) {
			if ls.reoAt.IsZero() || due.Before(ls.reoAt) {
				ls.reoAt = due
			}
		} else {
			ls.markLost(s)
			fresh = true
		}
	}
	if fresh && ls.recovery == recNone {
		e.enterRecovery(p)
	}
}

// enterRecovery starts a fast-recovery episode: cwnd halves once for the
// whole episode, and the first retransmission goes out at once.
func (e *Engine) enterRecovery(p *pcb) {
	ls := p.loss
	p.ssthresh = max32((p.sndNxt-p.sndUna)/2, 2*uint32(p.mss))
	p.cwnd = p.ssthresh
	ls.recovery = recFast
	ls.recoverPt = p.sndNxt
	ls.force = true
	e.stats.FastRetx++
}

// pipe is the sender's estimate of bytes in the network (RFC 6675):
// outstanding data neither SACKed nor presumed lost.
func (p *pcb) pipe() uint32 {
	n := p.sndNxt - p.sndUna
	if ls := p.loss; ls != nil {
		n -= ls.sacked + ls.lost
	}
	return n
}

// retransmitLost resends lost entries, lowest first, while cwnd has room
// for at least a segment (or once regardless, when forced).
func (e *Engine) retransmitLost(p *pcb) {
	ls := p.loss
	seg := e.segPayload(p)
	for i := 0; i < len(ls.segs) && ls.lost > 0; i++ {
		if ls.segs[i].flags&segLost == 0 {
			continue
		}
		room := uint32(0)
		if pipe := p.pipe(); pipe < p.cwnd {
			room = p.cwnd - pipe
		}
		if ls.force {
			room = max32(room, seg)
			ls.force = false
		} else if room < seg && room < ls.segs[i].len() {
			return
		}
		n := min32(ls.segs[i].len(), room)
		if !e.cfg.TSO {
			n = min32(n, seg)
		}
		e.resend(p, i, min32(n, TSOMaxBurst))
	}
}

// resend retransmits the first n bytes of entry i (splitting it when n is
// shorter) and stamps the entry retransmitted.
func (e *Engine) resend(p *pcb, i int, n uint32) {
	ls := p.loss
	s := &ls.segs[i]
	if s.flags&segFIN != 0 {
		e.emitSegment(p, netpkt.TCPFin|netpkt.TCPAck, s.start, nil, 0, false)
	} else {
		ptrs, got := e.gather(p, s.start, n)
		if got == 0 {
			return
		}
		n = got
		segSize := uint16(0)
		if seg := e.segPayload(p); e.cfg.TSO && got > seg {
			segSize = uint16(seg)
		}
		e.emitData(p, netpkt.TCPAck|netpkt.TCPPsh, s.start, ptrs, got, segSize)
	}
	if n < s.len() {
		ls.split(i, s.start+n)
		s = &ls.segs[i]
	}
	if s.flags&segLost != 0 {
		s.flags &^= segLost
		ls.lost -= s.len()
	}
	s.flags |= segRetx
	s.at = e.now
	e.stats.Retransmits++
}

// rearmRetx points the retransmission timer at the earliest pending
// event: a RACK reordering deadline, else a tail-loss probe, else the RTO.
func (e *Engine) rearmRetx(p *pcb) {
	ls := p.loss
	if ls != nil && !ls.reoAt.IsZero() {
		ls.timer = retxReo
		e.armTimer(p, timerRTO, ls.reoAt)
		return
	}
	if ls != nil && !ls.tlpOut && p.srtt > 0 && p.sndWnd > 0 {
		pto := 2 * p.srtt
		if p.sndNxt-p.sndUna <= uint32(p.mss) {
			pto += delAckDelay // a lone segment's ACK may be delayed
		}
		pto = max(pto, tlpMin)
		if pto < p.rto {
			ls.timer = retxTLP
			e.armTimer(p, timerRTO, e.now.Add(pto))
			return
		}
	}
	e.armRTO(p, e.now.Add(p.rto))
}

// armRTO arms the retransmission timer as a plain RTO.
func (e *Engine) armRTO(p *pcb, at time.Time) {
	if p.loss != nil {
		p.loss.timer = retxRTO
	}
	e.armTimer(p, timerRTO, at)
}

// retxTimerFire dispatches the shared retransmission timer.
func (e *Engine) retxTimerFire(p *pcb) {
	if ls := p.loss; ls != nil && len(ls.segs) > 0 {
		switch ls.timer {
		case retxReo:
			e.detectLoss(p)
			e.output(p)
			e.rearmRetx(p)
			return
		case retxTLP:
			e.probeTail(p)
			return
		}
	}
	e.rtoFire(p)
}

// probeTail sends the tail-loss probe (RFC 8985): outside recovery the
// last segment, whose SACK lets RACK find any loss before it; in recovery
// the lowest unSACKed segment, whose retransmission is what a lost
// retransmission leaves the window waiting on. Then the RTO takes over.
func (e *Engine) probeTail(p *pcb) {
	ls := p.loss
	ls.tlpOut = true
	mss := uint32(p.mss)
	i := -1
	if ls.recovery != recNone {
		for j := range ls.segs {
			if ls.segs[j].flags&segSACKed == 0 {
				if ls.segs[j].len() > mss {
					ls.split(j, ls.segs[j].start+mss)
				}
				i = j
				break
			}
		}
	} else if j := len(ls.segs) - 1; ls.segs[j].flags&segSACKed == 0 {
		if s := ls.segs[j]; s.len() > mss {
			ls.split(j, s.end-mss)
			j++
		}
		i = j
	}
	if i >= 0 {
		e.stats.TLPProbes++
		ls.markLost(&ls.segs[i])
		ls.force = true
		e.output(p)
	}
	e.armRTO(p, e.now.Add(p.rto))
}
