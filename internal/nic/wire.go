// Package nic simulates the network hardware under the stack: an
// e1000-class device (descriptor rings, gather DMA out of shared pools,
// checksum and TCP-segmentation offload, interrupts, reset) and the
// full-duplex wire between two devices (bandwidth, latency, loss, MTU).
// The wire paces each direction on one goroutine by timestamp bookkeeping
// rather than by waiting (see wireDir.run): the emulator's CPU is harness
// cost, not stack cost, and it must leave the processor to the stack.
//
// The paper evaluates on Intel PRO/1000 gigabit adapters; this package is
// the substitution documented in DESIGN.md. It deliberately reproduces the
// awkward corner the paper hit: the device has no knob to invalidate its
// shadow descriptor state, so recovering a crashed IP server (which owns
// the RX pool) requires a full device Reset, with the link staying down
// while it retrains — the visible gap in Figure 4.
package nic

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMTU is the standard Ethernet MTU used in all paper configurations.
const DefaultMTU = 1500

// WireConfig describes one emulated link.
type WireConfig struct {
	// BitsPerSec caps throughput per direction (0 = uncapped).
	// 1e9 models the paper's gigabit links.
	BitsPerSec float64
	// Latency is added to every frame's delivery.
	Latency time.Duration
	// LossProb drops frames at random with this probability.
	LossProb float64
	// Seed seeds the loss process (reproducible experiments).
	Seed int64
	// MTU is the maximum payload the link carries (default 1500).
	MTU int
	// QueueFrames bounds in-flight frames per direction (default 256).
	QueueFrames int
}

func (c *WireConfig) fill() {
	if c.MTU == 0 {
		c.MTU = DefaultMTU
	}
	if c.QueueFrames == 0 {
		c.QueueFrames = 256
	}
}

// Gigabit returns the paper's standard link: 1 Gbps, 50µs latency, no loss.
func Gigabit() WireConfig {
	return WireConfig{BitsPerSec: 1e9, Latency: 50 * time.Microsecond}
}

// TenGigabit returns the 10 GbE link used for the Linux comparison row.
func TenGigabit() WireConfig {
	return WireConfig{BitsPerSec: 1e10, Latency: 50 * time.Microsecond}
}

// Wire is a full-duplex point-to-point link between two Devices.
type Wire struct {
	cfg  WireConfig
	dirs [2]*wireDir
	wg   sync.WaitGroup
}

// Pacing constants. They describe the emulator and the Go runtime, not the
// modelled link, so they are not part of WireConfig.
const (
	// lookahead is how far ahead of now a direction books its link. Frames
	// are admitted while the link is busy for less than this, so a pacing
	// goroutine that wakes up to lookahead late still finds the link busy
	// and the late wake-up costs no link time.
	lookahead = 200 * time.Microsecond
	// timerSlack is the runtime's timer granularity on an idle process (its
	// poller sleeps in whole milliseconds). Deadlines nearer than this are
	// met by yielding; farther ones sleep until timerSlack before them.
	timerSlack = time.Millisecond
)

type wireDir struct {
	cfg    WireConfig
	frames chan []byte
	stop   chan struct{}
	mu     sync.Mutex
	dst    *Device
	rng    *rand.Rand
	sent   atomic.Uint64
	lost   atomic.Uint64

	// Pacing state, owned by run.
	busyUntil time.Time    // end of the last admitted frame's serialization
	inFlight  []timedFrame // admitted, not yet delivered; due times ascend
}

// timedFrame is a frame on the wire, due at its receiver at due.
type timedFrame struct {
	due time.Time
	f   []byte
}

// NewWire creates an unattached wire; connect devices with AttachA/AttachB.
func NewWire(cfg WireConfig) *Wire {
	cfg.fill()
	w := &Wire{cfg: cfg}
	for i := range w.dirs {
		w.dirs[i] = &wireDir{
			cfg:    cfg,
			frames: make(chan []byte, cfg.QueueFrames),
			stop:   make(chan struct{}),
			rng:    rand.New(rand.NewSource(cfg.Seed + int64(i))),
		}
	}
	return w
}

// MTU returns the link MTU.
func (w *Wire) MTU() int { return w.cfg.MTU }

// AttachA connects dev as the A side (transmits on direction 0).
func (w *Wire) AttachA(dev *Device) { w.attach(dev, 0) }

// AttachB connects dev as the B side (transmits on direction 1).
func (w *Wire) AttachB(dev *Device) { w.attach(dev, 1) }

func (w *Wire) attach(dev *Device, dir int) {
	d := w.dirs[dir]
	rx := w.dirs[1-dir]
	rx.mu.Lock()
	rx.dst = dev
	rx.mu.Unlock()
	dev.attachTx(d)
	// Once both ends are attached, wire them as carrier peers so an
	// administrative link-down on one end is visible on the other.
	w.dirs[0].mu.Lock()
	a := w.dirs[0].dst
	w.dirs[0].mu.Unlock()
	w.dirs[1].mu.Lock()
	b := w.dirs[1].dst
	w.dirs[1].mu.Unlock()
	if a != nil && b != nil {
		a.setPeer(b)
		b.setPeer(a)
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		d.run()
	}()
}

// Close stops both directions and waits for the pacing goroutines.
func (w *Wire) Close() {
	for _, d := range w.dirs {
		d.mu.Lock()
		select {
		case <-d.stop:
		default:
			close(d.stop)
		}
		d.mu.Unlock()
	}
	w.wg.Wait()
}

// Stats returns frames sent and lost per direction (A->B, B->A). It may be
// called while the wire runs; a frame counts once its loss is decided.
func (w *Wire) Stats() (sentAB, lostAB, sentBA, lostBA uint64) {
	return w.dirs[0].sent.Load(), w.dirs[0].lost.Load(), w.dirs[1].sent.Load(), w.dirs[1].lost.Load()
}

// transmit enqueues a frame for pacing; blocks when the direction's queue
// is full, which is the backpressure that fills the device TX ring and in
// turn the stack's channels.
func (d *wireDir) transmit(frame []byte) bool {
	select {
	case d.frames <- frame:
		return true
	case <-d.stop:
		return false
	}
}

// run paces one direction: it admits frames from the TX queue, delivers
// every frame that is due, and waits for the next deadline, all on one
// goroutine.
//
// Serialization and propagation are timestamps, not waits: a frame's
// serialization starts when the link frees up (busyUntil, or now if the
// link is idle) and it is due at the receiver Latency after it ends. Loss
// is decided at admission, in admission order; a lost frame still used its
// link time. Since busyUntil only grows, due times do too, and the
// in-flight slice is delivered from its head in order.
//
// Frames are admitted while the link is booked less than lookahead ahead
// and fewer than 4×QueueFrames are in flight; the QueueFrames channel stays
// the TX backpressure. A deadline further off than timerSlack is slept on
// one reused timer, which a new frame also ends while the link has room;
// a nearer one is met by yielding the processor, never by spinning on the
// clock, so the stack keeps the CPU the emulated wire does not need.
func (d *wireDir) run() {
	d.inFlight = make([]timedFrame, 0, 4*d.cfg.QueueFrames)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		now := time.Now()
		room := d.room(now)
	admit:
		for room {
			select {
			case f := <-d.frames:
				d.admit(f, now)
				room = d.room(now)
			default:
				break admit
			}
		}

		n := 0
		for n < len(d.inFlight) && !d.inFlight[n].due.After(now) {
			n++
		}
		if n > 0 {
			d.deliver(d.inFlight[:n])
			k := copy(d.inFlight, d.inFlight[n:])
			clear(d.inFlight[k:]) // drop delivered frames for the GC
			d.inFlight = d.inFlight[:k]
			continue
		}

		var next time.Time // zero: nothing to wait for but new frames
		if len(d.inFlight) > 0 {
			next = d.inFlight[0].due
		}
		if !room && len(d.inFlight) < cap(d.inFlight) {
			if t := d.busyUntil.Add(-lookahead); next.IsZero() || t.Before(next) {
				next = t
			}
		}
		wait := next.Sub(now)
		if !next.IsZero() && wait <= timerSlack {
			select {
			case <-d.stop:
				return
			default:
			}
			runtime.Gosched()
			continue
		}
		var expired <-chan time.Time
		if !next.IsZero() {
			timer.Reset(wait - timerSlack)
			expired = timer.C
		}
		var frames <-chan []byte
		if room {
			frames = d.frames
		}
		select {
		case <-d.stop:
			timer.Stop()
			return
		case <-expired:
		case f := <-frames:
			timer.Stop()
			d.admit(f, time.Now())
		}
	}
}

// room reports whether the link may admit another frame at now: fewer than
// 4×QueueFrames are in flight and the link is booked less than lookahead
// ahead.
func (d *wireDir) room(now time.Time) bool {
	return len(d.inFlight) < cap(d.inFlight) && d.busyUntil.Sub(now) < lookahead
}

// admit books f on the link at now and decides its loss; a frame that is
// not lost joins the in-flight frames.
func (d *wireDir) admit(f []byte, now time.Time) {
	if d.busyUntil.Before(now) {
		d.busyUntil = now
	}
	if d.cfg.BitsPerSec > 0 {
		d.busyUntil = d.busyUntil.Add(time.Duration(float64(len(f)*8) / d.cfg.BitsPerSec * float64(time.Second)))
	}
	if d.cfg.LossProb > 0 && d.rng.Float64() < d.cfg.LossProb {
		d.lost.Add(1)
		return
	}
	d.sent.Add(1)
	d.inFlight = append(d.inFlight, timedFrame{due: d.busyUntil.Add(d.cfg.Latency), f: f})
}

// deliver hands a batch of due frames, in order, to the receiving device.
func (d *wireDir) deliver(batch []timedFrame) {
	d.mu.Lock()
	dst := d.dst
	d.mu.Unlock()
	if dst == nil {
		return
	}
	for _, tf := range batch {
		dst.receiveFrame(tf.f)
	}
}

// validFrame checks frame size against the link MTU (+Ethernet header).
func (d *wireDir) validFrame(n int) error {
	if n > d.cfg.MTU+14 {
		return fmt.Errorf("nic: frame of %d exceeds MTU %d", n, d.cfg.MTU)
	}
	return nil
}
