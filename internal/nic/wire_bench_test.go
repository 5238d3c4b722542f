//go:build unix

package nic

import (
	"sort"
	"syscall"
	"testing"
	"time"

	"newtos/internal/netpkt"
	"newtos/internal/shm"
)

// BenchmarkWirePacing measures the emulated wire on its own, on a gigabit
// link with full-size frames handed straight to one direction. It reports
// the process CPU time per delivered frame (sender, pacing goroutine and a
// receiver that re-posts buffers) and the delivery lateness: when a frame
// landed minus when an ideal link would have delivered it, serializing
// each frame from when it was handed over or the previous one ended,
// whichever is later, and adding Latency. "stream" keeps the TX queue
// full, as bulk transfer does; "sparse" hands over one frame at a time and
// waits for it, as request/response traffic does.
func BenchmarkWirePacing(b *testing.B) {
	b.Run("stream", func(b *testing.B) { benchWirePacing(b, 1000, false) })
	b.Run("sparse", func(b *testing.B) { benchWirePacing(b, 100, true) })
}

func benchWirePacing(b *testing.B, perOp int, sparse bool) {
	cfg := Gigabit()
	space := shm.NewSpace()
	tx := NewDevice(DeviceConfig{Name: "a"}, space)
	rx := NewDevice(DeviceConfig{Name: "b"}, space)
	w := NewWire(cfg)
	w.AttachA(tx)
	w.AttachB(rx)
	defer func() { w.Close(); tx.Close(); rx.Close() }()

	total := b.N * perOp
	arrivals := recordArrivals(b, space, rx, total)
	frame := indexedFrame(b, 0, DefaultMTU+netpkt.EthHeaderLen-indexedPayloadOff)
	ser := serialization(len(frame), cfg.BitsPerSec)
	handed := make([]time.Time, total)
	landed := make([]time.Time, 0, total)

	b.ResetTimer()
	cpu0 := cpuTime(b)
	for i := range handed {
		handed[i] = time.Now()
		w.dirs[0].transmit(frame)
		if sparse {
			landed = append(landed, waitArrival(b, arrivals).at)
		}
	}
	for len(landed) < total {
		landed = append(landed, waitArrival(b, arrivals).at)
	}
	cpu := cpuTime(b) - cpu0
	b.StopTimer()

	late := make([]time.Duration, total)
	var idealEnd time.Time
	var sum time.Duration
	for i, h := range handed {
		if idealEnd.Before(h) {
			idealEnd = h
		}
		idealEnd = idealEnd.Add(ser)
		late[i] = landed[i].Sub(idealEnd.Add(cfg.Latency))
		sum += late[i]
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	b.ReportMetric(float64(cpu.Nanoseconds())/float64(total), "cpu-ns/frame")
	b.ReportMetric(float64(sum)/float64(time.Microsecond)/float64(total), "late-mean-us")
	b.ReportMetric(float64(late[total*99/100])/float64(time.Microsecond), "late-p99-us")
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
