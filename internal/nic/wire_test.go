package nic

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// indexedPayloadOff is where an indexed frame's payload, and so its index,
// starts: after the Ethernet, IPv4 and option-less TCP headers.
const indexedPayloadOff = netpkt.EthHeaderLen + netpkt.IPv4HeaderLen + netpkt.TCPHeaderLen

func indexedFrameLen(payloadLen int) int { return indexedPayloadOff + payloadLen }

// indexedFrame builds a valid frame whose payload starts with index i.
func indexedFrame(t testing.TB, i, payloadLen int) []byte {
	payload := make([]byte, payloadLen)
	binary.BigEndian.PutUint32(payload, uint32(i))
	return buildFrame(t, payload, true)
}

// serialization is the time a frame of n bytes occupies a link of bps,
// computed the way the wire books it.
func serialization(n int, bps float64) time.Duration {
	return time.Duration(float64(n*8) / bps * float64(time.Second))
}

// sendIndexed posts frames with indexes from..from+n-1 on dev, each from its
// own TX chunk, waiting out a full TX ring.
func sendIndexed(t testing.TB, space *shm.Space, dev *Device, from, n, payloadLen int) {
	t.Helper()
	pool, err := space.NewPool("tx-indexed", 2048, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := from; i < from+n; i++ {
		frame := indexedFrame(t, i, payloadLen)
		ptr, buf, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		copy(buf, frame)
		desc := TxDesc{Ptrs: []shm.RichPtr{ptr.Slice(0, uint32(len(frame)))}, Cookie: uint64(i)}
		for dev.PostTx(desc) != nil {
			dev.CollectTx()
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// arrival is one frame landing at a receiver: the index it carries and
// when it landed.
type arrival struct {
	idx int
	at  time.Time
}

// recordArrivals makes dev a receiver that stamps each frame as it lands:
// the stamp is taken in the RX interrupt, which the wire raises from its
// delivery pass, so it is never earlier than the delivery. Buffers are
// re-posted as they fill. The returned channel holds up to max arrivals.
func recordArrivals(t testing.TB, space *shm.Space, dev *Device, max int) <-chan arrival {
	t.Helper()
	postBuffers(t, space, dev, RxRingSize)
	out := make(chan arrival, max)
	dev.SetIRQ(func() {
		now := time.Now()
		for _, c := range dev.CollectRx() {
			idx := -1
			if view, err := space.View(c.Ptr); err == nil && len(view) >= indexedPayloadOff+4 {
				idx = int(binary.BigEndian.Uint32(view[indexedPayloadOff:]))
			}
			select {
			case out <- arrival{idx: idx, at: now}:
			default: // beyond max: the caller reads no more
			}
			full := shm.RichPtr{Pool: c.Ptr.Pool, Gen: c.Ptr.Gen, Off: c.Ptr.Off - c.Ptr.Off%2048, Len: 2048}
			_ = dev.PostRx(full)
		}
	})
	return out
}

func waitArrival(t testing.TB, arrivals <-chan arrival) arrival {
	t.Helper()
	select {
	case a := <-arrivals:
		return a
	case <-time.After(5 * time.Second):
		t.Fatal("no frame arrived within 5s")
		return arrival{}
	}
}

// waitWireDecided polls the A->B counters, while the wire runs, until n
// frames have been admitted (each either sent or lost).
func waitWireDecided(t *testing.T, w *Wire, n uint64) (sent, lost uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sent, lost, _, _ = w.Stats()
		if sent+lost >= n || time.Now().After(deadline) {
			return sent, lost
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWirePacedInOrder checks order, the rate cap and the latency floor
// together on a loaded link: frame k (from 0) lands in position k and no
// sooner than k+1 serialization times plus Latency after the first was
// posted.
func TestWirePacedInOrder(t *testing.T) {
	const n, payload = 200, 1000
	cfg := WireConfig{BitsPerSec: 100e6, Latency: 2 * time.Millisecond}
	a, b, space, _, done := devicePair(t, cfg)
	defer done()
	arrivals := recordArrivals(t, space, b, n)
	ser := serialization(indexedFrameLen(payload), cfg.BitsPerSec)
	start := time.Now()
	sendIndexed(t, space, a, 0, n, payload)
	for k := 0; k < n; k++ {
		got := waitArrival(t, arrivals)
		if got.idx != k {
			t.Fatalf("arrival %d carries frame %d", k, got.idx)
		}
		if min := time.Duration(k+1)*ser + cfg.Latency; got.at.Sub(start) < min {
			t.Fatalf("frame %d landed %v after the first was posted, want >= %v", k, got.at.Sub(start), min)
		}
	}
}

func TestWireLatencyFloor(t *testing.T) {
	cfg := Gigabit()
	cfg.Latency = 5 * time.Millisecond
	a, b, space, _, done := devicePair(t, cfg)
	defer done()
	arrivals := recordArrivals(t, space, b, 1)
	start := time.Now()
	sendIndexed(t, space, a, 0, 1, 64)
	if got := waitArrival(t, arrivals).at.Sub(start); got < cfg.Latency {
		t.Fatalf("frame landed %v after it was posted on a %v wire", got, cfg.Latency)
	}
}

// TestWireLossFollowsSeed pins the loss process: the A->B direction drops
// exactly the frames a reference generator seeded with Seed picks, in
// admission order, and every transmitted frame is counted sent or lost.
func TestWireLossFollowsSeed(t *testing.T) {
	const n, payload = 200, 100
	for _, seed := range []int64{1, 7, 42} {
		cfg := WireConfig{BitsPerSec: 1e9, LossProb: 0.3, Seed: seed}
		ref := rand.New(rand.NewSource(seed))
		var want []int
		for i := 0; i < n; i++ {
			if ref.Float64() >= cfg.LossProb {
				want = append(want, i)
			}
		}
		a, b, space, w, done := devicePair(t, cfg)
		arrivals := recordArrivals(t, space, b, n)
		sendIndexed(t, space, a, 0, n, payload)
		sent, lost := waitWireDecided(t, w, n)
		if sent+lost != n {
			t.Fatalf("seed %d: sent %d + lost %d, want the %d frames transmitted", seed, sent, lost, n)
		}
		if sent != uint64(len(want)) {
			t.Fatalf("seed %d: sent %d, reference keeps %d", seed, sent, len(want))
		}
		for _, idx := range want {
			if got := waitArrival(t, arrivals); got.idx != idx {
				t.Fatalf("seed %d: frame %d arrived where the reference keeps %d", seed, got.idx, idx)
			}
		}
		done()
	}
}

// TestWireBoundsFramesInFlight fills a direction whose frames never land:
// it admits 4×QueueFrames, the queue takes QueueFrames more, and then the
// sender blocks. Close must still return.
func TestWireBoundsFramesInFlight(t *testing.T) {
	const queue = 4
	space := shm.NewSpace()
	a := NewDevice(DeviceConfig{Name: "a"}, space)
	defer a.Close()
	b := NewDevice(DeviceConfig{Name: "b"}, space)
	defer b.Close()
	w := NewWire(WireConfig{Latency: time.Hour, QueueFrames: queue})
	defer w.Close()
	w.AttachA(a)
	w.AttachB(b)

	frame := indexedFrame(t, 0, 64)
	var accepted atomic.Int64
	sender := make(chan struct{})
	go func() {
		defer close(sender)
		for w.dirs[0].transmit(frame) {
			accepted.Add(1)
		}
	}()
	if sent, _ := waitWireDecided(t, w, 4*queue); sent != 4*queue {
		t.Fatalf("%d frames in flight, want %d", sent, 4*queue)
	}
	// An unbounded wire would keep admitting; give it the chance.
	time.Sleep(20 * time.Millisecond)
	sent, _, _, _ := w.Stats()
	if sent != 4*queue || accepted.Load() > 5*queue {
		t.Fatalf("%d in flight and %d accepted, want %d and at most %d", sent, accepted.Load(), 4*queue, 5*queue)
	}
	w.Close()
	<-sender
}

// TestPostTxAfterIdle guards the TX engine's idle wait: it blocks on the
// kick channel alone, so a descriptor posted to a device that has been
// idle for a while must still be picked up.
func TestPostTxAfterIdle(t *testing.T) {
	a, b, space, _, done := devicePair(t, WireConfig{})
	defer done()
	arrivals := recordArrivals(t, space, b, 2)
	sendIndexed(t, space, a, 0, 1, 64)
	waitArrival(t, arrivals)
	time.Sleep(3 * time.Millisecond)
	sendIndexed(t, space, a, 1, 1, 64)
	if got := waitArrival(t, arrivals); got.idx != 1 {
		t.Fatalf("frame %d arrived, want 1", got.idx)
	}
}
