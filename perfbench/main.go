// Command perfbench is the repository's benchmark. It drives the split
// stack (core.SplitTSO on one nic.Gigabit wire between two nodes) through
// the public APIs of core and sock, as an application would, and prints
// every end-to-end metric by name and unit. Build and run it with
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
//
// from the repository root. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The run exits
// non-zero when any output is wrong: a byte that differs from the seeded
// payload, a failed connect, a reset, a timeout, a crash or hang restart of
// any component, or an upgrade that was not a live handoff.
//
// # Workloads
//
// Each is a closed loop with two load connections generated from one
// process (one sock.Client on node A). The seed generates every payload,
// and every payload is verified on arrival.
//
//   - bulk: two TCP streams A→B with 64 KiB writes on a lossless wire. The
//     per-byte data path: sock copies, tcpeng segments and ACKs, ipeng GRO,
//     nic TSO and checksums, the wire. Almost no control-plane work.
//   - rr: two persistent TCP connections, each sending a 64 B request and
//     waiting for its echo. The per-message path: doorbell wake-ups, SC
//     routing, the pacer in latency mode. It shows whether a batching gain
//     on bulk costs latency.
//   - lossy: bulk with 1% seeded frame loss on the wire. Loss recovery in
//     tcpeng does most of the work here and none in bulk or rr.
//   - churn_swap: TCP in two shards; set-up opens 2,000 connections that
//     stay idle all run (held state, one client, no load). Two clients loop
//     over connect, one 64 B echo, and close, while node B live-upgrades
//     tcp0, tcp1 and udp in rotation every 200 ms. The control plane and the
//     dependability path: SC's shard router, pcb churn, storage
//     persistence, pf conntrack, and the liveup transfer, which grows with
//     live state. The only sharded workload.
//
// # End-to-end metrics (--trace 0)
//
// Every workload reports all of them. The measured phase is cut into
// one-second windows and a metric is the median of its per-window values,
// so a burst of contention from outside the benchmark moves it little.
// goodput_mbps is verified payload bytes per second. rr_* time a 64 B
// request until its echo is verified, conn_* time connect plus echo plus
// close, swap_pause_p50_us is the wall time of core.Node.Upgrade,
// heap_per_conn_bytes is the settled live-heap growth per idle connection
// opened, and setup_s is the median time of five set-ups (build and start
// the LAN, open the connections, warm up).
//
// When a workload's own loop does not produce a metric, a probe measures
// it on a reference LAN in the same process: the flagship configuration on
// its own lossless wire, idle but for the probe. The measured phase is
// split into ten parts and one probe segment runs after each, with the
// workload's load stopped, so the probe meets the same conditions on the
// machine: 400 round trips on each of two connections (rr_* on bulk and
// lossy), 160 connection cycles per client (conn_*), and 20 live upgrades
// of node B's TCP while one connection keeps echoing (swap_pause_p50_us).
// A probe's p50, p90 and rate are the medians over its segments of each
// segment's percentiles and of its completions per second. After the last
// part, 1,000 idle connections on the reference LAN give
// heap_per_conn_bytes.
// churn_swap produces every metric in its own loop; its rr_* time the
// echo inside each connection.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures the workload twice on one LAN, untraced and then
// traced, each for half of --seconds, and reports per-layer metrics from
// the traced phase: spans around the benchmark's own calls into sock and
// liveup, counters read from each module's exported stats after that
// module's loop has exited, and CPU and allocation profiles charged to the
// innermost repo module on each stack (nic, kipc and the benchmark itself
// are the harness). Nothing inside the stack is instrumented. Engine
// counters cover the whole run, set-up included. trace.overhead_share is
// how much worse the workload's headline metric was in the traced phase.
// The spans go to <out>/spans-<workload>-<seed>.json and the CPU profile
// to <out>/cpu-<workload>-<seed>.pprof.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"newtos/internal/core"
	"newtos/internal/sock"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []string{"bulk", "rr", "lossy", "churn_swap"}

func main() {
	workload := flag.String("workload", "", "bulk, rr, lossy or churn_swap")
	seed := flag.Int64("seed", 1, "seed for every payload and the wire's loss process")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for spans and profiles")
	flag.Parse()
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload bulk|rr|lossy|churn_swap --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	// A run that wedges must still end, and end as a failure.
	time.AfterFunc(time.Duration(*seconds)*time.Second+2*time.Minute, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	d := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *traceFlag == 1 {
		res, err = traced(*workload, *seed, d, *out)
	} else {
		res, err = untraced(*workload, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

const (
	// windowLen is the measured phase's unit: every end-to-end metric the
	// loop produces is the median of its per-window values.
	windowLen = time.Second
	// bulkRamp is how long the bulk streams run before a part of the
	// measured phase starts its first window.
	bulkRamp = 300 * time.Millisecond
)

// phase is what one measured phase produced, window by window.
type phase struct {
	goodput     []float64 // verified payload Mbps
	rtt         []window  // request/response round trips
	conn        []window  // connect + echo + close
	rttD, connD []time.Duration
	ops         int64 // operations completed
	bytes       float64
	swaps       []swapRecord
}

// add appends a later part of the same phase.
func (p *phase) add(q phase) {
	p.goodput = append(p.goodput, q.goodput...)
	p.rtt, p.conn = append(p.rtt, q.rtt...), append(p.conn, q.conn...)
	p.rttD, p.connD = append(p.rttD, q.rttD...), append(p.connD, q.connD...)
	p.ops += q.ops
	p.bytes += q.bytes
	p.swaps = append(p.swaps, q.swaps...)
}

func (p phase) goodputMbps() float64 { return median(p.goodput) }

// measure runs the workload's loop for d.
func (e *env) measure(d time.Duration) (phase, error) {
	n := int(d / windowLen)
	swaps0 := len(e.phases)
	var p phase
	switch e.w {
	case "bulk", "lossy":
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.bulkLoop(stop)
		}()
		// The streams restart after each probe segment; leave their
		// ramp back to full rate out of the windows.
		time.Sleep(bulkRamp)
		next := time.Now()
		r0 := e.sink.received.Load()
		last := r0
		for i := 0; i < n; i++ {
			next = next.Add(windowLen)
			time.Sleep(time.Until(next))
			r := e.sink.received.Load()
			p.goodput = append(p.goodput, float64(r-last)*8/windowLen.Seconds()/1e6)
			last = r
		}
		close(stop)
		<-done
		p.bytes = float64(last - r0)
		p.ops = int64(p.bytes / chunkSize)
		if err := e.drainStreams(); err != nil {
			return p, err
		}
	case "rr":
		r, err := e.rrLoop(e.rrConns, 0, stopAfter(d))
		if err != nil {
			return p, err
		}
		p.fromLoop(r, n)
	case "churn_swap":
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.swapLoop(e.swapNames(), stop)
		}()
		r, err := e.connLoop(0, stopAfter(d))
		close(stop)
		<-done
		if err != nil {
			return p, err
		}
		p.fromLoop(r, n)
	}
	p.swaps = e.phases[swaps0:]
	return p, nil
}

func (p *phase) fromLoop(r *loopResult, n int) {
	p.rtt = r.rtt.windows(r.start, windowLen, n)
	p.conn = r.conn.windows(r.start, windowLen, n)
	p.rttD, p.connD = r.rtt.d, r.conn.d
	for _, w := range p.rtt {
		p.goodput = append(p.goodput, w.rate()*msgSize*8/1e6)
	}
	p.ops = int64(len(p.rttD))
	p.bytes = float64(p.ops * msgSize)
}

// finishLoad ends the workload's load connections and checks the streams
// arrived whole.
func (e *env) finishLoad() {
	if e.streams != nil {
		e.closeStreams()
	}
	for _, s := range e.rrConns {
		if err := s.Close(); err != nil {
			e.ops.fail("rr close: %v", err)
		}
	}
	e.rrConns = nil
}

// gate fails the run on any crash or hang restart and returns how many
// there were.
func (e *env) gate() int {
	n0 := e.ops.failed.Load()
	for _, n := range []*core.Node{e.lan.A, e.lan.B} {
		for _, ev := range n.Monitor.Events() {
			if !ev.Planned {
				e.ops.fail("%s: %s restarted (%s, hang=%v)", n.Cfg.Name, ev.Name, ev.Reason, ev.Hang)
			}
		}
		for _, name := range append(n.Components(), core.CompSC, core.CompStorage) {
			if p := n.Proc(name); p != nil && p.Crashes() > 0 {
				e.ops.fail("%s: %s crashed %d times", n.Cfg.Name, name, p.Crashes())
			}
		}
	}
	return int(e.ops.failed.Load() - n0)
}

// untraced runs the end-to-end measurement.
func untraced(w string, seed int64, d time.Duration) (result, error) {
	pl := newPayload(seed)
	o := &ops{}
	var setups, heaps []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		x, err := setUp(w, seed, pl, o)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		heaps = append(heaps, x.heapPerConn)
		if i < setupReps-1 {
			x.tearDown()
		} else {
			e = x
		}
	}
	fmt.Printf("workload=%s seed=%d seconds=%.0f trace=0\n", w, seed, d.Seconds())
	// Workloads that take metrics from probes interleave the probe
	// segments with parts of the measured phase, so a stretch of
	// contention from outside the benchmark cannot fall on all of them.
	var pr *prober
	parts := 1
	if w != "churn_swap" {
		parts = min(probeSegs, int(d/windowLen))
		var err error
		if pr, err = newProber(w == "rr", seed, pl, o); err != nil {
			e.tearDown()
			return result{}, fmt.Errorf("probe: %w", err)
		}
	}
	var p phase
	for i := 0; i < parts; i++ {
		part, err := e.measure(d / time.Duration(parts))
		p.add(part)
		if err != nil {
			e.ops.fail("%s: %v", w, err)
			break
		}
		if pr != nil {
			if err := pr.segment(); err != nil {
				e.ops.fail("probe: %v", err)
				break
			}
		}
	}
	e.finishLoad()

	rr50, rr90, rrRate := windowMedians(p.rtt)
	conn50, conn90, connRate := windowMedians(p.conn)
	rttAll, connAll := summarize(p.rttD), summarize(p.connD)
	swaps, heap := p.swaps, median(heaps)
	if pr != nil {
		if err := pr.finish(); err != nil {
			e.ops.fail("probe: %v", err)
		}
		connAll, swaps, heap = summarize(pr.connD), pr.swaps, pr.heapPerConn
		conn50, conn90, connRate = windowMedians(pr.conn)
		if w != "rr" {
			rttAll = summarize(pr.rttD)
			rr50, rr90, rrRate = windowMedians(pr.rtt)
		}
	}
	e.gate()
	e.tearDown()

	var pauses []time.Duration
	for _, s := range swaps {
		pauses = append(pauses, s.pause)
	}
	pause := summarize(pauses)
	m := map[string]metric{
		"goodput_mbps":        {p.goodputMbps(), "Mbps"},
		"rr_p50_us":           {rr50, "us"},
		"rr_p90_us":           {rr90, "us"},
		"rr_per_s":            {rrRate, "1/s"},
		"conn_p50_us":         {conn50, "us"},
		"conn_p90_us":         {conn90, "us"},
		"conn_per_s":          {connRate, "1/s"},
		"swap_pause_p50_us":   {us(pause.pct(0.5)), "us"},
		"heap_per_conn_bytes": {heap, "bytes"},
		"setup_s":             {median(setups), "s"},
	}
	fmt.Printf("  setup_s samples %v\n", setups)
	fmt.Printf("  rr   all samples %s\n", rttAll.describe())
	fmt.Printf("  conn all samples %s\n", connAll.describe())
	fmt.Printf("  swap %s\n", pause.describe())
	printTail("tail.rr_p99_us", rttAll, 0.99)
	printTail("tail.rr_p999_us", rttAll, 0.999)
	printTail("tail.conn_p99_us", connAll, 0.99)
	printMetrics(m)
	return finish(o, m), nil
}

func printTail(name string, s summary, q float64) {
	note := ""
	if !s.supports(q) {
		note = " (fewer than ten samples beyond it)"
	}
	fmt.Printf("  %-22s %12.1f us  n=%d%s\n", name, us(s.pct(q)), s.n(), note)
}

func printMetrics(m map[string]metric) {
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-40s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func finish(o *ops, m map[string]metric) result {
	return result{
		Correct:   o.failed.Load() == 0,
		Attempted: o.attempted.Load(),
		Failed:    o.failed.Load(),
		Metrics:   m,
	}
}

// prober measures the end-to-end metrics a workload's own loop does not
// produce. It runs on a reference LAN of its own in the same process: the
// flagship configuration on a lossless wire, idle but for the probes. The
// workload's own wire would make them measure something else on lossy,
// where about one connection cycle in ten loses a frame and p90 lands on
// the loss-recovery slope.
type prober struct {
	ref         *env
	skipRR      bool           // the workload measures rr_* itself
	conns       []*sock.Socket // nproc persistent connections
	rtt, conn   []window       // one per segment
	rttD, connD []time.Duration
	swaps       []swapRecord
	heapPerConn float64
}

func newProber(skipRR bool, seed int64, pl *payload, o *ops) (*prober, error) {
	ref, err := setUp("probe", seed, pl, o)
	if err != nil {
		return nil, err
	}
	pr := &prober{ref: ref, skipRR: skipRR}
	for i := 0; i < nproc; i++ {
		s, err := ref.dial(ref.load)
		if err != nil {
			ref.tearDown()
			return nil, err
		}
		pr.conns = append(pr.conns, s)
	}
	return pr, nil
}

// segment runs one segment of each probe: round trips, connection
// cycles, and upgrades of node B's TCP while one probe connection keeps
// echoing, so the swaps meet a running engine as in churn_swap.
func (pr *prober) segment() error {
	e := pr.ref
	if !pr.skipRR {
		r, err := e.rrLoop(pr.conns, probeRR, nil)
		if err != nil {
			return err
		}
		pr.rtt = append(pr.rtt, window{r.rtt.summary(), r.elapsed})
		pr.rttD = append(pr.rttD, r.rtt.d...)
	}
	r, err := e.connLoop(probeConns, nil)
	if err != nil {
		return err
	}
	pr.conn = append(pr.conn, window{r.conn.summary(), r.elapsed})
	pr.connD = append(pr.connD, r.conn.d...)

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := e.rrLoop(pr.conns[:1], 0, stop)
		done <- err
	}()
	swaps0 := len(e.phases)
	for i := 0; i < probeSwaps/probeSegs && err == nil; i++ {
		err = e.swap(core.CompTCP)
	}
	close(stop)
	if perr := <-done; err == nil {
		err = perr
	}
	pr.swaps = append(pr.swaps, e.phases[swaps0:]...)
	return err
}

// finish measures the heap per idle connection, checks the reference LAN
// for restarts and tears it down.
func (pr *prober) finish() error {
	e := pr.ref
	defer e.tearDown()
	for _, s := range pr.conns {
		if err := s.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
	}
	before := settledHeap()
	if _, err := e.openIdle(probeIdle); err != nil {
		return err
	}
	pr.heapPerConn = float64(int64(settledHeap())-int64(before)) / probeIdle
	e.gate()
	return nil
}
