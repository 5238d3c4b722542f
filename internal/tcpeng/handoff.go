package tcpeng

// Live-update state transfer (docs/ARCHITECTURE.md "Zero-downtime live
// update"). HandoffState serializes the engine's complete live state as one
// gob blob — every pcb with its stream chunks, receive queue, congestion
// and loss-recovery state (scoreboard, out-of-order queue) and parked timer
// deadlines, plus the request database's in-flight sends and the
// un-drained outbound batches — and collects the live
// *sockbuf.Buf handles that cross the handoff by pointer (their pools live
// in the node's shm.Space, which outlives incarnations, so every rich
// pointer in the blob stays valid). RestoreHandoff rebuilds the engine in a
// successor incarnation: fresh slab slots (alloc zeroes wheelAt, so re-arm
// is never short-circuited), rebuilt id/tuple indexes and port table,
// re-seeded request ids, timers re-armed on a fresh wheel from the
// transferred deadlines, and readiness conservatively re-announced for
// nonblocking sockets — spurious edges, never lost ones.
//
// The engine deliberately does not import internal/liveup: the server wraps
// this blob and the handles into the typed record stream.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
)

// handoffChunk mirrors streamChunk with exported fields for gob.
type handoffChunk struct {
	Seq uint32
	Ptr shm.RichPtr
}

// handoffRx mirrors rxItem.
type handoffRx struct {
	Payload   shm.RichPtr
	DeliverID uint64
	Consumed  uint32
}

// handoffOOO mirrors oooSeg.
type handoffOOO struct {
	Seq       uint32
	Payload   shm.RichPtr
	DeliverID uint64
}

// handoffSeg mirrors txSeg.
type handoffSeg struct {
	Start, End uint32
	At         time.Time
	Flags      uint8
}

// handoffLoss mirrors lossState. It follows its pcb's record in the blob
// only when the pcb holds one (handoffPCB.Loss), so a swap whose pcbs hold
// none never pays gob's per-type cost of describing and compiling it.
type handoffLoss struct {
	OOO       []handoffOOO
	OOOLast   uint32
	Segs      []handoffSeg
	Recovery  uint8
	RecoverPt uint32
	Force     bool
	TLPOut    bool
	Timer     uint8
	DupAcks   int
	RackAt    time.Time
	RackEnd   uint32
	ReoAt     time.Time
}

// handoffPCB mirrors every live field of a pcb. Slot, bufIdx, timerSeq and
// wheelAt are deliberately absent: they are incarnation-local (fresh slab
// slot, fresh wheel) and must not survive the swap.
type handoffPCB struct {
	ID    uint32
	State State

	LocalPort  uint16
	RemoteIP   netpkt.IPAddr
	RemotePort uint16
	LocalIP    netpkt.IPAddr
	Bound      bool
	PortEphem  bool

	ISS      uint32
	SndUna   uint32
	SndNxt   uint32
	SndWnd   uint32
	Cwnd     uint32
	Ssthresh uint32
	MSS      uint16

	Stream    []handoffChunk
	StreamEnd uint32
	FinQueued bool
	FinSeq    uint32
	FinSent   bool

	SRTT        time.Duration
	RTTVar      time.Duration
	RTO         time.Duration
	RTOAt       time.Time
	RetxCount   int
	RetxMark    uint32
	RetxPending int32
	SACKOK      bool
	Loss        bool // a handoffLoss record follows this one

	IRS        uint32
	RcvNxt     uint32
	RcvQ       []handoffRx
	RcvQueued  uint32
	FinRcvd    bool
	DelAckAt   time.Time
	AckPending int

	HasBuf         bool
	Nonblock       bool
	ConnStatus     int32
	PendingRecv    uint64
	PendingConnect uint64
	PendingAccept  []uint64
	AcceptQ        []uint32
	Backlog        int
	ListenerID     uint32
	TimeWaitAt     time.Time
	Reset          bool
}

// handoffInflight is one outstanding request to IP: the reply (sendDone)
// will arrive on the inherited channel addressed to this id, and the
// successor must keep matching it — and must free the header chunk if IP
// crashes instead.
type handoffInflight struct {
	ID  uint64
	Hdr shm.RichPtr
	// RetxFlow is the owning pcb id when this frame re-covers already-sent
	// bytes (its connection defers ring recycle until it completes); 0
	// otherwise. Socket ids are always nonzero.
	RetxFlow uint32
}

// handoffMeta is the engine-level header of the blob. The listener map and
// port reservations are not serialized: both are derivable from the pcbs
// (state Listen / bound+portEphem), so they are rebuilt during restore and
// can never disagree with the connection table.
type handoffMeta struct {
	Next        uint32
	IssClock    uint32
	PortCursor  uint16
	NextReqID   uint64
	Inflight    []handoffInflight
	DeliverRefs map[uint64]int
	ToIP        []msg.Req
	ToFront     []msg.Req
	Stats       Stats
	SaveGap     time.Duration
	NumConns    int
}

// HandoffState serializes the engine for a live update and returns the blob
// plus the per-socket TX buffer handles the successor adopts in place. It
// runs on the loop goroutine as the old incarnation's final act, after the
// drain rounds, so no concurrent mutation is possible.
func (e *Engine) HandoffState() ([]byte, map[uint32]*sockbuf.Buf, error) {
	// TIME-WAIT expiries collected by a final Tick but not yet destroyed:
	// finish the job now so the blob never carries dead connections.
	if len(e.dead) > 0 {
		for i, p := range e.dead {
			e.destroy(p)
			e.dead[i] = nil
		}
		e.dead = e.dead[:0]
	}

	meta := handoffMeta{
		Next:        e.next,
		IssClock:    e.issClock,
		PortCursor:  e.ports.cursor,
		NextReqID:   e.db.LastID(),
		DeliverRefs: e.deliverRefs,
		ToIP:        e.toIP,
		ToFront:     e.toFront,
		Stats:       e.stats,
		SaveGap:     e.saveGap,
		NumConns:    e.byID.len(),
	}
	e.db.Each(func(id uint64, dest string, data any) {
		if dest != "ip" {
			return
		}
		if ptr, ok := data.(shm.RichPtr); ok {
			meta.Inflight = append(meta.Inflight, handoffInflight{ID: id, Hdr: ptr, RetxFlow: e.retxFrames[id]})
		}
	})

	bufs := make(map[uint32]*sockbuf.Buf)
	var b bytes.Buffer
	enc := gob.NewEncoder(&b)
	if err := enc.Encode(&meta); err != nil {
		return nil, nil, fmt.Errorf("tcpeng: handoff meta: %w", err)
	}
	var encErr error
	e.eachPCB(func(p *pcb) {
		if encErr != nil {
			return
		}
		if p.buf != nil {
			bufs[p.id] = p.buf
		}
		h := capturePCB(p)
		if err := enc.Encode(&h); err != nil {
			encErr = fmt.Errorf("tcpeng: handoff pcb %d: %w", p.id, err)
			return
		}
		if p.loss != nil {
			l := captureLoss(p.loss)
			if err := enc.Encode(&l); err != nil {
				encErr = fmt.Errorf("tcpeng: handoff pcb %d loss state: %w", p.id, err)
			}
		}
	})
	if encErr != nil {
		return nil, nil, encErr
	}
	return b.Bytes(), bufs, nil
}

func capturePCB(p *pcb) handoffPCB {
	h := handoffPCB{
		ID:    p.id,
		State: p.state,

		LocalPort:  p.localPort,
		RemoteIP:   p.remoteIP,
		RemotePort: p.remotePort,
		LocalIP:    p.localIP,
		Bound:      p.bound,
		PortEphem:  p.portEphem,

		ISS:      p.iss,
		SndUna:   p.sndUna,
		SndNxt:   p.sndNxt,
		SndWnd:   p.sndWnd,
		Cwnd:     p.cwnd,
		Ssthresh: p.ssthresh,
		MSS:      p.mss,

		StreamEnd: p.streamEnd,
		FinQueued: p.finQueued,
		FinSeq:    p.finSeq,
		FinSent:   p.finSent,

		SRTT:        p.srtt,
		RTTVar:      p.rttvar,
		RTO:         p.rto,
		RTOAt:       p.rtoAt,
		RetxCount:   p.retxCount,
		RetxMark:    p.retxMark,
		RetxPending: p.retxPending,
		SACKOK:      p.sackOK,

		IRS:        p.irs,
		RcvNxt:     p.rcvNxt,
		RcvQueued:  p.rcvQueued,
		FinRcvd:    p.finRcvd,
		DelAckAt:   p.delAckAt,
		AckPending: p.ackPending,

		HasBuf:         p.buf != nil,
		Nonblock:       p.nonblock,
		ConnStatus:     p.connStatus,
		PendingRecv:    p.pendingRecv,
		PendingConnect: p.pendingConnect,
		PendingAccept:  p.pendingAccept,
		AcceptQ:        p.acceptQ,
		Backlog:        p.backlog,
		ListenerID:     p.listenerID,
		TimeWaitAt:     p.timeWaitAt,
		Reset:          p.reset,
	}
	for _, c := range p.stream {
		h.Stream = append(h.Stream, handoffChunk{Seq: c.seq, Ptr: c.ptr})
	}
	for _, rx := range p.rcvQ {
		h.RcvQ = append(h.RcvQ, handoffRx{Payload: rx.payload, DeliverID: rx.deliverID, Consumed: rx.consumed})
	}
	h.Loss = p.loss != nil
	return h
}

// RestoreHandoff rebuilds the engine from a predecessor's blob. bufs are
// the live TX-buffer handles from the transfer payload; now seeds the
// engine clock so re-armed timers index correctly on the fresh wheel.
// Called from the successor's Init, before its first Poll.
func (e *Engine) RestoreHandoff(blob []byte, bufs map[uint32]*sockbuf.Buf, now time.Time) error {
	e.now = now
	dec := gob.NewDecoder(bytes.NewReader(blob))
	var meta handoffMeta
	if err := dec.Decode(&meta); err != nil {
		return fmt.Errorf("tcpeng: handoff meta: %w", err)
	}
	e.next = meta.Next
	e.issClock = meta.IssClock
	e.ports.cursor = meta.PortCursor
	e.stats = meta.Stats
	e.saveGap = meta.SaveGap
	if meta.DeliverRefs != nil {
		e.deliverRefs = meta.DeliverRefs
	}
	e.toIP = append(e.toIP, meta.ToIP...)
	e.toFront = append(e.toFront, meta.ToFront...)
	// Replies already on the wire carry the predecessor's request ids: keep
	// matching them, and keep the abort action armed in case IP crashes
	// mid-flight (same action emit installs — free the header chunk).
	e.db.Seed(meta.NextReqID)
	for _, fl := range meta.Inflight {
		if fl.RetxFlow != 0 {
			e.retxFrames[fl.ID] = fl.RetxFlow
		}
		e.db.Track(fl.ID, "ip", fl.Hdr, func(aborted uint64, data any) {
			if ptr, ok := data.(shm.RichPtr); ok {
				_ = e.hdrPool.Free(ptr)
			}
			e.retxDone(aborted)
		})
	}

	for i := 0; i < meta.NumConns; i++ {
		var h handoffPCB
		if err := dec.Decode(&h); err != nil {
			return fmt.Errorf("tcpeng: handoff pcb %d/%d: %w", i, meta.NumConns, err)
		}
		var l *handoffLoss
		if h.Loss {
			l = new(handoffLoss)
			if err := dec.Decode(l); err != nil {
				return fmt.Errorf("tcpeng: handoff pcb %d loss state: %w", h.ID, err)
			}
		}
		if err := e.restorePCB(&h, l, bufs[h.ID]); err != nil {
			return err
		}
	}
	// Seed the successor's storage snapshot from the restored tables so a
	// later crash recovers from current state, not the predecessor's.
	e.persist()
	return nil
}

func (e *Engine) restorePCB(h *handoffPCB, l *handoffLoss, buf *sockbuf.Buf) error {
	if h.HasBuf && buf == nil {
		return fmt.Errorf("tcpeng: handoff pcb %d: missing TX buffer handle", h.ID)
	}
	p, slot := e.slab.alloc()
	p.id = h.ID
	p.state = h.State

	p.localPort = h.LocalPort
	p.remoteIP = h.RemoteIP
	p.remotePort = h.RemotePort
	p.localIP = h.LocalIP
	p.bound = h.Bound
	p.portEphem = h.PortEphem

	p.iss = h.ISS
	p.sndUna = h.SndUna
	p.sndNxt = h.SndNxt
	p.sndWnd = h.SndWnd
	p.cwnd = h.Cwnd
	p.ssthresh = h.Ssthresh
	p.mss = h.MSS

	for _, c := range h.Stream {
		p.stream = append(p.stream, streamChunk{seq: c.Seq, ptr: c.Ptr})
	}
	p.streamEnd = h.StreamEnd
	p.finQueued = h.FinQueued
	p.finSeq = h.FinSeq
	p.finSent = h.FinSent

	p.srtt = h.SRTT
	p.rttvar = h.RTTVar
	p.rto = h.RTO
	p.retxCount = h.RetxCount
	p.retxMark = h.RetxMark
	p.retxPending = h.RetxPending
	p.sackOK = h.SACKOK
	if l != nil {
		restoreLoss(l, e.lossFor(p))
	}

	p.irs = h.IRS
	p.rcvNxt = h.RcvNxt
	for _, rx := range h.RcvQ {
		p.rcvQ = append(p.rcvQ, rxItem{payload: rx.Payload, deliverID: rx.DeliverID, consumed: rx.Consumed})
	}
	p.rcvQueued = h.RcvQueued
	p.finRcvd = h.FinRcvd
	p.ackPending = h.AckPending

	p.nonblock = h.Nonblock
	p.connStatus = h.ConnStatus
	p.pendingRecv = h.PendingRecv
	p.pendingConnect = h.PendingConnect
	p.pendingAccept = h.PendingAccept
	p.acceptQ = h.AcceptQ
	p.backlog = h.Backlog
	p.listenerID = h.ListenerID
	p.reset = h.Reset

	e.byID.put(uint64(p.id), slot)
	if p.fourTuple != (fourTuple{}) {
		e.byTuple.put(p.fourTuple.key(), slot)
	}

	// Port table and listener map are rebuilt from the pcbs. reserve can
	// return false when the port is already held (a listener's accepted
	// children share its port) — the bitmap end state is identical either
	// way. Each autobound pcb re-acquires one ephemeral refcount, matching
	// the releases its eventual destroy will perform.
	if p.state == StateListen {
		e.listeners[p.localPort] = p.id
		e.ports.reserve(p.localPort)
	} else if p.bound && p.localPort != 0 {
		if p.portEphem {
			e.ports.ephemAcquire(p.localPort)
		} else {
			e.ports.reserve(p.localPort)
		}
	}

	if buf != nil {
		p.buf = buf
		e.trackBuf(p)
		// The registry entry from the predecessor's PublishBuf is still
		// live — the buffer object itself never changed — so no re-publish.
	}

	// Re-arm parked timers on the fresh wheel. The slab gave us a zeroed
	// wheelAt, so arm never short-circuits; deadlines already in the past
	// fire on the first Tick.
	if !h.RTOAt.IsZero() {
		e.armTimer(p, timerRTO, h.RTOAt)
	}
	if !h.DelAckAt.IsZero() {
		e.armTimer(p, timerDelAck, h.DelAckAt)
	}
	if !h.TimeWaitAt.IsZero() {
		e.armTimer(p, timerTimeWait, h.TimeWaitAt)
	}

	e.announceReadiness(p)
	return nil
}

// announceReadiness re-emits the current level state as edges for a
// nonblocking socket after a handoff: the SYSCALL server's poller may have
// consumed an edge the moment before the swap, and edges, unlike levels,
// are not re-derivable by the receiver. Spurious wakeups are benign (every
// consumer retries and handles EAGAIN); lost ones would strand a poller
// forever. Mirrors the level computation in setFlags.
func (e *Engine) announceReadiness(p *pcb) {
	if !p.nonblock {
		return
	}
	var bits uint64
	if p.rcvQueued > 0 {
		bits |= msg.EvReadable
	}
	if p.finRcvd {
		bits |= msg.EvEOF | msg.EvReadable
	}
	if len(p.acceptQ) > 0 {
		bits |= msg.EvAcceptReady
	}
	if p.reset || p.connStatus != 0 {
		bits |= msg.EvError
	}
	switch p.state {
	case StateEstablished, StateCloseWait:
		bits |= msg.EvWritable
	}
	if bits != 0 {
		e.event(p, bits)
	}
}

func captureLoss(ls *lossState) handoffLoss {
	l := handoffLoss{
		OOOLast:   ls.oooLast,
		Recovery:  ls.recovery,
		RecoverPt: ls.recoverPt,
		Force:     ls.force,
		TLPOut:    ls.tlpOut,
		Timer:     ls.timer,
		DupAcks:   ls.dupAcks,
		RackAt:    ls.rackAt,
		RackEnd:   ls.rackEnd,
		ReoAt:     ls.reoAt,
	}
	for _, o := range ls.ooo {
		l.OOO = append(l.OOO, handoffOOO{Seq: o.seq, Payload: o.payload, DeliverID: o.deliverID})
	}
	for _, s := range ls.segs {
		l.Segs = append(l.Segs, handoffSeg{Start: s.start, End: s.end, At: s.at, Flags: s.flags})
	}
	return l
}

// restoreLoss rebuilds a loss state from its handoff mirror, recomputing
// the scoreboard's byte counters.
func restoreLoss(l *handoffLoss, ls *lossState) {
	for _, o := range l.OOO {
		ls.ooo = append(ls.ooo, oooSeg{seq: o.Seq, payload: o.Payload, deliverID: o.DeliverID})
	}
	ls.oooLast = l.OOOLast
	for _, hs := range l.Segs {
		s := txSeg{start: hs.Start, end: hs.End, at: hs.At, flags: hs.Flags}
		ls.segs = append(ls.segs, s)
		if s.flags&segSACKed != 0 {
			ls.sacked += s.len()
		}
		if s.flags&segLost != 0 {
			ls.lost += s.len()
		}
	}
	ls.recovery, ls.recoverPt = l.Recovery, l.RecoverPt
	ls.force, ls.tlpOut, ls.timer = l.Force, l.TLPOut, l.Timer
	ls.dupAcks = l.DupAcks
	ls.rackAt, ls.rackEnd, ls.reoAt = l.RackAt, l.RackEnd, l.ReoAt
}
