package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// traced runs the workload untraced and then traced on one LAN, each for
// half of d, and reports the per-layer metrics of the traced phase.
func traced(w string, seed int64, d time.Duration, out string) (result, error) {
	d = max(d/2, windowLen)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	o := &ops{}
	e, err := setUp(w, seed, newPayload(seed), o)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	fmt.Printf("workload=%s seed=%d seconds=%.0f trace=1\n", w, seed, d.Seconds())
	u, err := e.measure(d)
	if err != nil {
		e.ops.fail("%s untraced phase: %v", w, err)
	}

	// Sample one allocation per 4 KiB, not 512 KiB, so the module shares
	// rest on enough samples; only the traced phase pays for it.
	defaultRate := runtime.MemProfileRate
	runtime.MemProfileRate = allocSampleRate
	var ms0, ms1 runtime.MemStats
	allocs0 := takeAllocSnapshot()
	runtime.ReadMemStats(&ms0)
	bells0, chans0 := ipcCounters(e.lan)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		e.tearDown()
		return result{}, err
	}
	rec := newSpanRecorder()
	e.tr.Store(rec)
	t, err := e.measure(d)
	e.tr.Store(nil)
	pprof.StopCPUProfile()
	if err != nil {
		e.ops.fail("%s traced phase: %v", w, err)
	}
	bells1, chans1 := ipcCounters(e.lan)
	runtime.ReadMemStats(&ms1)
	allocs1 := takeAllocSnapshot()
	runtime.MemProfileRate = defaultRate

	e.finishLoad()
	restarts := e.gate()
	live := liveServices(e.lan)
	nicA, nicB := e.lan.DeviceOf("a", 0), e.lan.DeviceOf("b", 0)
	e.tearDown()
	// Every loop has exited: engine counters are safe to read.
	c := engineCounters(e.retired, live)
	sentAB, lostAB, sentBA, lostBA := e.lan.Wires[0].Stats()
	putsA, _ := e.lan.A.Hub.Store.Stats()
	putsB, _ := e.lan.B.Hub.Store.Stats()

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	cpu, nSamples, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	var harness float64
	for _, mod := range harnessModules {
		harness += cpu[mod]
	}
	set("cpu.harness_share", harness, "share")
	allocs := allocShares(allocs0, allocs1, allocSampleRate)
	for _, mod := range reportedModules {
		set("cpu."+mod+".share", cpu[mod], "share")
		set("alloc."+mod+".share", allocs[mod], "share")
	}

	mb := t.bytes / 1e6
	// The unit of work a per-op count is divided by: one MB delivered on
	// the streaming workloads, one operation on the others.
	perOp := float64(t.ops)
	if w == "bulk" || w == "lossy" {
		perOp = mb
	}
	allocated := float64(ms1.TotalAlloc - ms0.TotalAlloc)
	set("alloc.bytes_per_mb", ratio(allocated, mb), "bytes/MB")
	set("alloc.bytes_per_op", ratio(allocated, float64(t.ops)), "bytes/op")
	set("alloc.sock.bytes_per_mb", ratio(allocs["sock"]*allocated, mb), "bytes/MB")
	set("alloc.ipeng.bytes_per_mb", ratio(allocs["ipeng"]*allocated, mb), "bytes/MB")
	set("gc.count", float64(ms1.NumGC-ms0.NumGC), "count")
	set("gc.pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")

	spans := rec.snapshot()
	for _, x := range []struct {
		metric, span string
		q            float64
	}{
		{"sock.send_us.p50", "sock.send", 0.5},
		{"sock.recv_wait_us.p50", "sock.recv", 0.5},
		{"sock.socket_us.p50", "sock.socket", 0.5},
		{"sock.connect_us.p50", "sock.connect", 0.5},
		{"sock.connect_us.p90", "sock.connect", 0.9},
		{"sock.accept_us.p50", "sock.accept", 0.5},
		{"sock.close_us.p50", "sock.close", 0.5},
	} {
		set(x.metric, us(durations(spans, x.span).pct(x.q)), "us")
	}

	set("tcp.segs_out", float64(c.segsOut), "count")
	set("tcp.retransmits", float64(c.retransmits), "count")
	set("tcp.fast_retx", float64(c.fastRetx), "count")
	set("tcp.dupacks_in", float64(c.dupAcksIn), "count")
	set("tcp.drops_ooo", float64(c.dropsOOO), "count")
	set("tcp.drops_dup", float64(c.dropsDup), "count")
	set("tcp.drops_window", float64(c.dropsWindow), "count")
	set("tcp.retx_share", ratio(float64(c.retransmits), float64(c.segsOut)), "share")
	set("tcp.tick_ns", ratio(float64(c.tickNanos), float64(c.tickCount)), "ns")

	set("ip.gro_segs_per_delivery", ratio(float64(c.groDeliveries+c.groCoalesced), float64(c.groDeliveries)), "segs")
	set("ip.drops_ring_full", float64(c.dropsRingFull), "count")
	set("ip.rx_pressure", float64(c.rxPressure), "count")
	set("pf.states_created", float64(c.statesCreated), "count")
	set("pf.state_hit_share", ratio(float64(c.stateHits), float64(c.pfPassed)), "share")

	sa, sb := nicA.Stats(), nicB.Stats()
	set("nic.tso_frames", float64(sa.TSOFramesSynthesized+sb.TSOFramesSynthesized), "count")
	set("nic.rx_drops_nobuf", float64(sa.RxDropsNoBuf+sb.RxDropsNoBuf), "count")
	lost := float64(lostAB + lostBA)
	set("wire.loss_share", ratio(lost, lost+float64(sentAB+sentBA)), "share")

	for _, edge := range reportedEdges {
		msgs := chans1[edge].msgs - chans0[edge].msgs
		batches := chans1[edge].batches - chans0[edge].batches
		set("channel."+edge+".msgs", float64(msgs), "count")
		set("channel."+edge+".avg_batch", ratio(float64(msgs), float64(batches)), "msgs")
	}
	for _, comp := range reportedBells {
		set("doorbell."+comp+".wakeups", ratio(float64(bells1[comp]-bells0[comp]), perOp), "1/op")
	}

	var drain, transfer, rewire, resume []time.Duration
	for _, s := range e.phases {
		drain, transfer = append(drain, s.drain), append(transfer, s.transfer)
		rewire, resume = append(rewire, s.rewire), append(resume, s.resume)
	}
	set("liveup.drain_us.p50", us(summarize(drain).pct(0.5)), "us")
	set("liveup.transfer_us.p50", us(summarize(transfer).pct(0.5)), "us")
	set("liveup.rewire_us.p50", us(summarize(rewire).pct(0.5)), "us")
	set("liveup.resume_us.p50", us(summarize(resume).pct(0.5)), "us")
	set("reinc.crash_restarts", float64(restarts), "count")
	set("storage.puts_per_conn", ratio(float64(putsA+putsB), float64(e.conns.Load())), "puts/conn")
	set("trace.overhead_share", overhead(w, u, t), "share")

	fmt.Printf("  cpu profile: %d samples\n", nSamples)
	for _, x := range []struct {
		name string
		p    phase
	}{{"untraced", u}, {"traced", t}} {
		rr50, rr90, _ := windowMedians(x.p.rtt)
		c50, c90, _ := windowMedians(x.p.conn)
		fmt.Printf("  %-8s goodput=%.2fMbps rr p50=%.1fus p90=%.1fus conn p50=%.1fus p90=%.1fus\n",
			x.name, x.p.goodputMbps(), rr50, rr90, c50, c90)
	}
	self := selfTimes(spans)
	for _, l := range sortedKeys(self) {
		fmt.Printf("  self_ms.%-12s %12.1f\n", l, float64(self[l])/float64(time.Millisecond))
	}
	printMetrics(m)

	if err := writeSpans(filepath.Join(out, fmt.Sprintf("spans-%s-%d.json", w, seed)), spans); err != nil {
		return result{}, err
	}
	if err := os.WriteFile(filepath.Join(out, fmt.Sprintf("cpu-%s-%d.pprof", w, seed)), prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	return finish(o, m), nil
}

// allocSampleRate is runtime.MemProfileRate during the traced phase.
const allocSampleRate = 4096

// overhead is how much worse the traced phase's headline metric was than
// the untraced phase's, as a share of the untraced value.
func overhead(w string, u, t phase) float64 {
	switch w {
	case "bulk", "lossy":
		return ratio(u.goodputMbps()-t.goodputMbps(), u.goodputMbps())
	case "rr":
		u50, _, _ := windowMedians(u.rtt)
		t50, _, _ := windowMedians(t.rtt)
		return ratio(t50-u50, u50)
	default:
		u50, _, _ := windowMedians(u.conn)
		t50, _, _ := windowMedians(t.conn)
		return ratio(t50-u50, u50)
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
