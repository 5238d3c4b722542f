package tcpeng

import (
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// segmentIn processes one inbound TCP delivery from IP.
// r.Ptrs[0] points at the L4 segment inside IP's receive pool; r.ID is the
// deliver cookie we must eventually hand back so IP can recycle the buffer.
// A GRO-merged delivery (Arg[3] > 1) carries the payload-only views of the
// coalesced trailing segments in Ptrs[1:]; the run is contiguous in
// sequence space and all segments shared the first header's ack and window,
// so the lead header represents the whole run.
func (e *Engine) segmentIn(r msg.Req) {
	seg := r.Ptrs[0]
	view, err := e.cfg.Space.View(seg)
	if err != nil {
		e.releaseDeliver(r.ID)
		return
	}
	th, err := netpkt.ParseTCP(view)
	if err != nil {
		e.releaseDeliver(r.ID)
		return
	}
	nseg := int(r.Arg[3])
	if nseg < 1 {
		nseg = 1
	}
	var extras []shm.RichPtr
	if nseg > 1 {
		extras = r.Chain()[1:]
	}
	e.stats.SegsIn += uint64(nseg)
	srcIP := netpkt.IPFromU32(uint32(r.Arg[1]))
	key := fourTuple{localPort: th.DstPort, remoteIP: srcIP, remotePort: th.SrcPort}

	dstIP := netpkt.IPFromU32(uint32(r.Arg[2]))
	if slot, ok := e.byTuple.get(key.key()); ok {
		e.segmentForConn(e.slab.at(slot), th, seg, view, extras, nseg, r.ID)
		return
	}
	// No connection: a listener may take a SYN.
	if th.Flags&netpkt.TCPSyn != 0 && th.Flags&netpkt.TCPAck == 0 {
		if lid, ok := e.listeners[th.DstPort]; ok {
			e.handleListenSyn(e.pcbOf(lid), th, key, dstIP)
			e.releaseDeliver(r.ID)
			return
		}
	}
	// Unknown segment (e.g. for a connection that died with a previous
	// incarnation): RST, unless it is itself an RST.
	if th.Flags&netpkt.TCPRst == 0 {
		e.sendRstFor(th, srcIP, dstIP)
	}
	e.releaseDeliver(r.ID)
}

// handleListenSyn creates an embryonic connection for a SYN on a listener.
func (e *Engine) handleListenSyn(l *pcb, th netpkt.TCPHeader, key fourTuple, dstIP netpkt.IPAddr) {
	if len(l.acceptQ)+1 > l.backlog {
		return // silently drop; peer retries
	}
	c, slot := e.slab.alloc()
	c.id, c.state, c.mss, c.listenerID = e.allocID(), StateSynRcvd, MSS, l.id
	c.fourTuple = key
	c.localIP = dstIP
	c.bound = true
	c.sackOK = th.SACKPermitted
	if th.MSS != 0 && th.MSS < c.mss {
		c.mss = th.MSS
	}
	e.initSendState(c)
	c.irs = th.Seq
	c.rcvNxt = th.Seq + 1
	c.sndWnd = uint32(th.Window)
	e.byID.put(uint64(c.id), slot)
	e.byTuple.put(key.key(), slot)
	// No TX buffer yet: it is provisioned lazily on the first send, so an
	// accepted-but-idle connection costs no socket-buffer memory.
	e.emitSegment(c, netpkt.TCPSyn|netpkt.TCPAck, c.iss, nil, 0, true)
	c.sndNxt = c.iss + 1
	c.rto = synRTO
	e.armTimer(c, timerRTO, e.now.Add(c.rto))
}

// segmentForConn is the per-connection receive state machine. extras are
// the payload-only views of GRO-coalesced trailing segments (nil for a
// plain single-segment delivery); nseg is the wire segment count.
func (e *Engine) segmentForConn(p *pcb, th netpkt.TCPHeader, seg shm.RichPtr, view []byte, extras []shm.RichPtr, nseg int, deliverID uint64) {
	if th.Flags&netpkt.TCPRst != 0 {
		e.stats.RSTsIn++
		e.connReset(p)
		e.releaseDeliver(deliverID)
		return
	}

	switch p.state {
	case StateSynSent:
		e.synSentIn(p, th)
		e.releaseDeliver(deliverID)
		return
	case StateSynRcvd:
		if th.Flags&netpkt.TCPAck != 0 && th.Ack == p.sndNxt {
			e.established(p)
			// Fall through to normal processing for any piggybacked data.
		} else if th.Flags&netpkt.TCPSyn != 0 {
			// Duplicate SYN: re-ack.
			e.emitSegment(p, netpkt.TCPSyn|netpkt.TCPAck, p.iss, nil, 0, true)
			e.releaseDeliver(deliverID)
			return
		}
	case StateTimeWait:
		e.sendAck(p)
		e.releaseDeliver(deliverID)
		return
	case StateClosed:
		e.releaseDeliver(deliverID)
		return
	}

	// ACK processing. plen spans the whole (possibly merged) run.
	plen := uint32(len(view) - th.DataOff)
	for _, ex := range extras {
		plen += ex.Len
	}
	if th.Flags&netpkt.TCPAck != 0 {
		e.processAck(p, &th, plen > 0)
	}
	windowOpened := p.sndWnd == 0 && th.Window > 0
	p.sndWnd = uint32(th.Window)
	if windowOpened {
		e.disarmTimer(p, timerRTO)
		p.retxCount = 0
	}
	used := false
	if plen > 0 {
		used = e.processData(p, th, seg, extras, nseg, plen, deliverID)
	}

	// FIN processing (only when all data up to the FIN has arrived).
	if th.Flags&netpkt.TCPFin != 0 && p.rcvNxt == th.Seq+plen {
		e.processFin(p)
	}

	if !used {
		e.releaseDeliver(deliverID)
	}
	e.output(p)
	e.releaseLoss(p)
}

func (e *Engine) synSentIn(p *pcb, th netpkt.TCPHeader) {
	if th.Flags&(netpkt.TCPSyn|netpkt.TCPAck) != netpkt.TCPSyn|netpkt.TCPAck || th.Ack != p.iss+1 {
		return
	}
	p.irs = th.Seq
	p.rcvNxt = th.Seq + 1
	p.sndUna = th.Ack
	p.sndWnd = uint32(th.Window)
	p.sackOK = th.SACKPermitted
	if th.MSS != 0 && th.MSS < p.mss {
		p.mss = th.MSS
	}
	e.established(p)
	e.sendAck(p)
	e.output(p)
}

// established completes the handshake for both active and passive opens.
func (e *Engine) established(p *pcb) {
	if p.state == StateEstablished {
		return
	}
	p.state = StateEstablished
	p.rto = minRTO * 4
	e.disarmTimer(p, timerRTO)
	p.retxCount = 0
	if p.pendingConnect != 0 {
		e.replyConnected(p.pendingConnect, p)
		p.pendingConnect = 0
	} else if p.listenerID == 0 {
		// Nonblocking active open completed: announce the edge; the app
		// learns the outcome by re-issuing the connect.
		e.event(p, msg.EvWritable)
	}
	if p.listenerID != 0 {
		if l := e.pcbOf(p.listenerID); l != nil && l.state == StateListen {
			if len(l.pendingAccept) > 0 {
				id := l.pendingAccept[0]
				l.pendingAccept = l.pendingAccept[1:]
				e.replyAccept(id, l.id, p.id)
			} else {
				l.acceptQ = append(l.acceptQ, p.id)
				if len(l.acceptQ) == 1 {
					// Empty → nonempty edge; nonblocking accepters must
					// drain the queue until EAGAIN on each wakeup.
					e.event(l, msg.EvAcceptReady)
				}
			}
		}
		e.stats.ConnsAccepted++
	}
	e.persist()
}

// processAck advances the send window, frees acknowledged stream chunks,
// feeds the scoreboard (cumulative ACK and SACK blocks), samples RTT, and
// drives congestion control: Reno slow start and congestion avoidance
// outside recovery, cwnd held at ssthresh through a fast-recovery episode.
func (e *Engine) processAck(p *pcb, th *netpkt.TCPHeader, hasPayload bool) {
	ack := th.Ack
	if netpkt.SeqLT(p.sndNxt, ack) {
		return // acks something never sent
	}
	ls := p.loss
	if netpkt.SeqLEQ(ack, p.sndUna) {
		if ack != p.sndUna || ls == nil || len(ls.segs) == 0 {
			return
		}
		// A duplicate ACK in the RFC 5681 sense: no payload, no window
		// change, data outstanding. Window updates and data segments that
		// repeat the ack number are NOT loss signals — but their SACK
		// blocks are.
		dup := !hasPayload && uint32(th.Window) == p.sndWnd
		if dup {
			e.stats.DupAcksIn++
		}
		if p.sackOK {
			if e.applySACK(p, th) {
				e.detectLoss(p)
				e.armReo(p)
			}
		} else if dup {
			e.newRenoDup(p)
		}
		return
	}
	// New data acknowledged.
	acked := ack - p.sndUna
	p.sndUna = ack
	if ls != nil {
		if last, ok := ls.ackTo(ack); ok && last.flags&segRetx == 0 {
			e.rttSample(p, e.now.Sub(last.at)) // Karn: never retransmitted
		}
		e.applySACK(p, th)
		ls.dupAcks = 0
		ls.tlpOut = false
		if ls.recovery != recNone && netpkt.SeqLEQ(ls.recoverPt, ack) {
			if ls.recovery == recFast {
				p.cwnd = p.ssthresh
			}
			ls.recovery = recNone
		} else if ls.recovery == recFast && !p.sackOK {
			ls.markHeadLost(uint32(p.mss)) // NewReno partial ACK: next hole
		}
		e.detectLoss(p)
	}
	// Congestion control.
	if ls == nil || ls.recovery != recFast {
		if p.cwnd < p.ssthresh {
			p.cwnd += min32(acked, uint32(p.mss)) // slow start
		} else {
			p.cwnd += max32(uint32(p.mss)*uint32(p.mss)/p.cwnd, 1) // AIMD
		}
	}

	e.recycleAcked(p)

	// Retransmission timer.
	if p.sndUna == p.sndNxt {
		e.disarmTimer(p, timerRTO)
		p.retxCount = 0
	} else {
		// Push the deadline out; the existing wheel entry (if earlier) is
		// reused and re-indexes itself when it comes up.
		e.rearmRetx(p)
	}

	// Half-close progress.
	if p.finSent && netpkt.SeqLT(p.finSeq, ack) {
		switch p.state {
		case StateFinWait1:
			p.state = StateFinWait2
		case StateClosing:
			e.enterTimeWait(p)
		case StateLastAck:
			e.destroy(p)
			e.persist()
		}
	}
}

// armReo moves the retransmission timer up to a RACK reordering deadline
// found on a duplicate ACK. A later RTO is not pushed out by duplicates.
func (e *Engine) armReo(p *pcb) {
	ls := p.loss
	if ls.reoAt.IsZero() || (!p.rtoAt.IsZero() && !ls.reoAt.Before(p.rtoAt)) {
		return
	}
	ls.timer = retxReo
	e.armTimer(p, timerRTO, ls.reoAt)
}

// newRenoDup counts a duplicate ACK from a peer without SACK: the third
// starts recovery with the head segment's retransmission, later ones
// inflate cwnd by the segment each signals has left the network.
func (e *Engine) newRenoDup(p *pcb) {
	ls := p.loss
	ls.dupAcks++
	switch {
	case ls.recovery == recFast:
		p.cwnd += uint32(p.mss)
	case ls.dupAcks == dupThresh && ls.recovery == recNone:
		e.enterRecovery(p)
		p.cwnd += dupThresh * uint32(p.mss)
		ls.markHeadLost(uint32(p.mss))
	}
}

func (e *Engine) rttSample(p *pcb, rtt time.Duration) {
	if p.srtt == 0 {
		p.srtt = rtt
		p.rttvar = rtt / 2
	} else {
		d := p.srtt - rtt
		if d < 0 {
			d = -d
		}
		p.rttvar = (3*p.rttvar + d) / 4
		p.srtt = (7*p.srtt + rtt) / 8
	}
	p.rto = p.srtt + 4*p.rttvar
	if p.rto < minRTO {
		p.rto = minRTO
	}
	if p.rto > maxRTO {
		p.rto = maxRTO
	}
}

// paySpan is one payload view of a delivery.
type paySpan struct {
	ptr  shm.RichPtr
	base uint32 // payload start within ptr
	n    uint32 // payload bytes in this view
}

// processData takes the part of a delivery that lies inside the receive
// window. In-order data is queued for the application (and pulls any
// out-of-order data it reaches along); data beyond a hole goes to the
// out-of-order queue and is answered at once with an ACK carrying SACK
// blocks (or, for a peer without SACK, one duplicate ACK per wire segment,
// so GRO merging cannot starve it of loss signals).
// The payload may span several views (a GRO-merged run: the lead segment's
// payload plus one payload-only view per coalesced trailing segment, all
// contiguous in sequence space); one queue entry is made per view part
// kept, each holding a reference on the deliver cookie.
// Returns true when the deliver buffer was retained.
func (e *Engine) processData(p *pcb, th netpkt.TCPHeader, seg shm.RichPtr, extras []shm.RichPtr, nseg int, plen uint32, deliverID uint64) bool {
	switch p.state {
	case StateEstablished, StateFinWait1, StateFinWait2:
	default:
		return false
	}
	seq := th.Seq
	start := uint32(0)
	if netpkt.SeqLT(seq, p.rcvNxt) {
		// Partial or full duplicate: trim the head.
		dup := p.rcvNxt - seq
		if dup >= plen {
			e.stats.DropsDup++
			e.sendAck(p)
			return false
		}
		start = dup
		seq = p.rcvNxt
	}
	wnd := e.rcvWnd(p)
	gap := seq - p.rcvNxt
	if gap >= wnd {
		e.stats.DropsWindow++
		e.sendAck(p)
		return false
	}
	take := plen - start
	if take > wnd-gap {
		e.stats.DropsWindow++
		take = wnd - gap
	}

	// Walk the payload views, skipping the trimmed head and stopping at the
	// window clamp. The lead view's payload begins at the TCP data offset;
	// the extras are payload-only.
	var spanBuf [msg.MaxPtrs]paySpan
	spans := append(spanBuf[:0], paySpan{ptr: seg, base: uint32(th.DataOff), n: seg.Len - uint32(th.DataOff)})
	for _, ex := range extras {
		spans = append(spans, paySpan{ptr: ex, n: ex.Len})
	}
	wasEmpty := p.rcvQueued == 0
	filling := p.loss != nil && len(p.loss.ooo) > 0
	skip, left, at, used := start, take, seq, false
	for _, sp := range spans {
		if left == 0 {
			break
		}
		if skip >= sp.n {
			skip -= sp.n
			continue
		}
		n := min32(sp.n-skip, left)
		part := sp.ptr.Slice(sp.base+skip, sp.base+skip+n)
		if gap > 0 {
			used = e.oooInsert(p, at, part, deliverID) || used
		} else {
			p.rcvQ = append(p.rcvQ, rxItem{payload: part, deliverID: deliverID})
			e.retainDeliver(deliverID)
			used = true
		}
		skip = 0
		left -= n
		at += n
	}
	if gap > 0 {
		e.stats.OOOQueued += uint64(nseg)
		acks := 1
		if !p.sackOK {
			acks = nseg
		}
		for i := 0; i < acks; i++ {
			e.sendAck(p)
		}
		return used
	}
	p.rcvQueued += take
	p.rcvNxt = seq + take
	e.stats.BytesIn += uint64(take)
	if filling {
		e.drainOOO(p)
	}
	if wasEmpty && p.pendingRecv == 0 {
		e.event(p, msg.EvReadable)
	}

	// ACK policy: at once when the segment fills a gap; otherwise every
	// second segment — or a PSH boundary (the end of a sender burst) —
	// immediately, else delayed. A merged delivery counts as its wire
	// segment count so ack clocking is unchanged by GRO. Acking on PSH
	// keeps TSO bursts from stalling on the delayed-ACK timer.
	p.ackPending += nseg
	if filling || p.ackPending >= 2 || th.Flags&netpkt.TCPPsh != 0 {
		e.sendAck(p)
	} else if p.delAckAt.IsZero() {
		e.armTimer(p, timerDelAck, e.now.Add(delAckDelay))
	}

	// Wake a parked recv.
	if p.pendingRecv != 0 {
		id := p.pendingRecv
		p.pendingRecv = 0
		e.replyRecv(id, p)
	}
	return used
}

func (e *Engine) processFin(p *pcb) {
	if p.finRcvd {
		return
	}
	p.finRcvd = true
	p.rcvNxt++
	e.dropOOO(p) // nothing follows a FIN: data queued beyond it is bogus
	e.sendAck(p)
	switch p.state {
	case StateEstablished:
		p.state = StateCloseWait
	case StateFinWait1:
		// Our FIN not yet acked: simultaneous close.
		p.state = StateClosing
	case StateFinWait2:
		e.enterTimeWait(p)
	}
	// EOF to a parked recv.
	if p.pendingRecv != 0 && p.rcvQueued == 0 {
		id := p.pendingRecv
		p.pendingRecv = 0
		rep := msg.Req{ID: id, Op: msg.OpSockRecvData, Flow: p.id, Status: msg.StatusOK}
		e.toFront = append(e.toFront, rep)
	}
	e.event(p, msg.EvEOF|msg.EvReadable)
	e.persist()
}

func (e *Engine) enterTimeWait(p *pcb) {
	p.state = StateTimeWait
	e.armTimer(p, timerTimeWait, e.now.Add(timeWait))
	e.disarmTimer(p, timerRTO)
	e.persist()
}

// connReset tears a connection down on RST: pending app operations fail
// with ECONNRESET.
func (e *Engine) connReset(p *pcb) {
	// Park the failure for a later connect poll ONLY when nobody is being
	// told now: a blocking connect (pendingConnect) gets its reply below,
	// and parking the status too would make the app's NEXT connect return
	// this stale refusal instead of dialing.
	status := msg.StatusErrConnRst
	if p.state == StateSynSent {
		status = msg.StatusErrRefused
	}
	if p.pendingConnect != 0 {
		e.reply(p.pendingConnect, p.id, msg.StatusErrRefused)
		p.pendingConnect = 0
		status = 0
	}
	if p.pendingRecv != 0 {
		e.reply(p.pendingRecv, p.id, msg.StatusErrConnRst)
		p.pendingRecv = 0
	}
	// Keep the pcb visible as reset for subsequent app calls.
	e.parkFailed(p, status)
	e.event(p, msg.EvError|msg.EvReadable|msg.EvWritable)
	e.persist()
}

// sendDone handles IP's completion of one of our segment transmissions:
// the header chunk is freed (payload chunks live until acknowledged).
func (e *Engine) sendDone(r msg.Req) {
	data, ok := e.db.Complete(r.ID)
	if !ok {
		return // pre-crash reply; fresh-ID rule says ignore
	}
	if hdr, ok := data.(shm.RichPtr); ok {
		_ = e.hdrPool.Free(hdr)
	}
	e.retxDone(r.ID)
}

// recycleAcked frees stream chunks that are fully acknowledged. If the
// supply ring was exhausted (the app's fillChain came up empty), the
// recycle is the exhausted → free edge a nonblocking sender waits on.
// Deferred while any frame re-covering already-sent bytes is still at the
// NIC: freeing the ring space would let the app overwrite the very memory
// the NIC is reading out of that older copy.
func (e *Engine) recycleAcked(p *pcb) {
	if p.retxPending > 0 {
		return
	}
	ringWasEmpty := p.buf != nil && p.buf.Free() == 0
	recycled := false
	for len(p.stream) > 0 {
		c := p.stream[0]
		if !netpkt.SeqLEQ(c.seq+c.ptr.Len, p.sndUna) {
			break
		}
		if p.buf != nil {
			p.buf.Recycle(c.ptr)
			recycled = true
		}
		p.stream = p.stream[1:]
	}
	if recycled && ringWasEmpty {
		e.event(p, msg.EvWritable)
	}
}

// retxDone resolves one tagged frame (see emit): when a connection's last
// in-flight retransmitted-region frame completes, the deferred ring
// recycle runs.
func (e *Engine) retxDone(id uint64) {
	pid, ok := e.retxFrames[id]
	if !ok {
		return
	}
	delete(e.retxFrames, id)
	p := e.pcbOf(pid)
	if p == nil {
		return
	}
	if p.retxPending > 0 {
		p.retxPending--
	}
	if p.retxPending == 0 {
		e.recycleAcked(p)
	}
}
