package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"newtos/internal/nic.(*wireDir).run":          "nic",
		"newtos/internal/tcpeng.(*Engine).Tick.func1": "tcpeng",
		"newtos/internal/sock.NewClient":              "sock",
		"newtos/perfbench.spin":                       benchModule,
		"main.(*env).connCycle":                       benchModule,
		"runtime.mallocgc":                            "",
		"newtos/cmd/tcpperf.main":                     "",
		"newtosx/internal/nic.f":                      "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeInnermostRepoFrame(t *testing.T) {
	for _, c := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.memmove", "newtos/internal/sock.(*Socket).Recv", "main.(*sinkServer).drain"}, "sock"},
		{[]string{"newtos/internal/netpkt.Checksum", "newtos/internal/nic.(*Device).txEngine"}, "netpkt"},
		{[]string{"bytes.Equal", "main.(*sinkServer).drain"}, benchModule},
		{[]string{"runtime.gcBgMarkWorker"}, runtimeModule},
		{nil, runtimeModule},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|wireVarint)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|wireBytes)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return b.bytes(field, body)
}

func TestDecodeSyntheticProfile(t *testing.T) {
	strs := []string{"", "runtime.memmove", "newtos/internal/sock.(*Socket).Recv",
		"main.(*sinkServer).drain", "runtime.gcBgMarkWorker", "samples", "count"}
	var prof pb
	prof = prof.bytes(1, pb{}.varint(1, 5).varint(2, 6)) // sample_type
	// Packed location ids and values.
	prof = prof.bytes(fProfileSample, pb{}.packed(fSampleLocation, 1, 2).packed(fSampleValue, 5, 50))
	// Unpacked ids and values, with a fixed64 field the reader must skip.
	skip := append(binary.AppendUvarint(nil, 9<<3|wire64), make([]byte, 8)...)
	prof = prof.bytes(fProfileSample, append(pb{}.varint(fSampleLocation, 3).varint(fSampleValue, 3).varint(fSampleValue, 30), skip...))
	// Location 2 has an inlined frame: function 2 inlined into function 3.
	prof = prof.bytes(fProfileLocation, pb{}.varint(fLocationID, 1).bytes(fLocationLine, pb{}.varint(fLineFunction, 1)))
	prof = prof.bytes(fProfileLocation, pb{}.varint(fLocationID, 2).
		bytes(fLocationLine, pb{}.varint(fLineFunction, 2).varint(2, 10)).
		bytes(fLocationLine, pb{}.varint(fLineFunction, 3)))
	prof = prof.bytes(fProfileLocation, pb{}.varint(fLocationID, 3).bytes(fLocationLine, pb{}.varint(fLineFunction, 4)))
	for id, name := range []uint64{1, 2, 3, 4} {
		prof = prof.bytes(fProfileFunction, pb{}.varint(fFunctionID, uint64(id+1)).varint(fFunctionName, name))
	}
	for _, s := range strs {
		prof = prof.bytes(fProfileStrings, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	shares, total, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total != 8 {
		t.Fatalf("total = %d, want 8", total)
	}
	if math.Abs(shares["sock"]-5.0/8) > 1e-9 || math.Abs(shares[runtimeModule]-3.0/8) > 1e-9 || len(shares) != 2 {
		t.Fatalf("shares = %v", shares)
	}

	if _, _, err := cpuShares(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

//go:noinline
func spin(until time.Time) int {
	n := 0
	for time.Now().Before(until) {
		n++
	}
	return n
}

var spinSink int

func TestDecodeRuntimeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinSink = spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	shares, total, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The spin loop is package main: the benchmark's own code.
	if total > 0 && shares[benchModule] < 0.5 {
		t.Fatalf("benchmark share %.2f of %d samples, want most of them", shares[benchModule], total)
	}
}

var allocSink [][]byte

//go:noinline
func allocateInMain(n int) {
	for i := 0; i < n; i++ {
		allocSink = append(allocSink, make([]byte, 1024))
	}
}

func TestAllocSharesAttributeToCaller(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	before := takeAllocSnapshot()
	allocateInMain(2000)
	after := takeAllocSnapshot()
	allocSink = nil
	if s := allocShares(before, after, 1)[benchModule]; s < 0.9 {
		t.Fatalf("benchmark alloc share = %.2f, want nearly all", s)
	}
}

var smallSink, largeSink []byte

//go:noinline
func allocSmall(n int) {
	for i := 0; i < n; i++ {
		smallSink = make([]byte, 64)
	}
}

//go:noinline
func allocLarge(n int) {
	for i := 0; i < n; i++ {
		largeSink = make([]byte, 64<<10)
	}
}

// At the traced run's sampling rate a 64 B object is recorded about once
// in 64 times and a 64 KiB one every time; the estimate must still split
// the bytes as they were allocated.
func TestAllocBytesScalesSampledSizes(t *testing.T) {
	const small, large = 200000, 100
	old := runtime.MemProfileRate
	runtime.MemProfileRate = allocSampleRate
	defer func() { runtime.MemProfileRate = old }()
	before := takeAllocSnapshot()
	allocSmall(small)
	allocLarge(large)
	after := takeAllocSnapshot()
	smallSink, largeSink = nil, nil
	byFunc := allocBytes(before, after, allocSampleRate, func(frames []string) string {
		for _, f := range frames {
			switch {
			case strings.HasSuffix(f, ".allocSmall"):
				return "small"
			case strings.HasSuffix(f, ".allocLarge"):
				return "large"
			}
		}
		return "other"
	})
	got := byFunc["small"] / (byFunc["small"] + byFunc["large"])
	want := float64(small*64) / float64(small*64+large*64<<10)
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("small share = %.3f, want %.3f (estimated bytes %v)", got, want, byFunc)
	}
}
