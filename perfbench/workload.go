package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"newtos/internal/core"
	"newtos/internal/msg"
	"newtos/internal/netpkt"
	"newtos/internal/nic"
	"newtos/internal/proc"
	"newtos/internal/sock"
)

const (
	nproc      = 2        // closed-loop load connections per workload
	chunkSize  = 64 << 10 // bulk write size
	msgSize    = 64       // request and echo size
	idlePop    = 2000     // churn_swap's held idle connections
	setupReps  = 5        // set-ups per run; setup_s is their median
	opTimeout  = 5 * time.Second
	swapEvery  = 200 * time.Millisecond
	sinkPort   = 5001
	echoPort   = 7
	lossyProb  = 0.01
	churnShard = 2

	// Probes give a workload the end-to-end metrics its own loop does not
	// produce (see the package comment).
	probeIdle  = 1000 // idle connections opened for heap_per_conn_bytes
	probeRR    = 400  // round trips per probe connection, per segment
	probeConns = 160  // connection cycles per client, per segment
	probeSegs  = 10   // probe segments, one after each part of the measured phase
	probeSwaps = 200  // live upgrades of TCP for swap_pause_p50_us
)

// payload is the seeded byte source every workload sends and verifies
// against. Any window of up to chunkSize bytes at any offset is one
// contiguous slice.
type payload struct {
	n   uint64
	buf []byte
}

func newPayload(seed int64) *payload {
	const n = 1<<20 + 4093
	b := make([]byte, n+chunkSize)
	rand.New(rand.NewSource(seed)).Read(b[:n])
	copy(b[n:], b[:chunkSize])
	return &payload{n: n, buf: b}
}

// at returns size bytes of the payload at offset off (size <= chunkSize).
func (p *payload) at(off uint64, size int) []byte {
	o := off % p.n
	return p.buf[o : o+uint64(size)]
}

// streamBase is where bulk stream id starts reading the payload.
func streamBase(id uint64) uint64 { return id * 104729 }

// msgOffset is where request k on connection c starts reading the payload.
func msgOffset(c, k uint64) uint64 {
	x := c<<40 ^ k
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// ops counts the operations a run attempts and those that fail. A failure
// is a failed connect, a byte mismatch, a reset, a timeout, or a swap that
// is not a live handoff.
type ops struct {
	attempted atomic.Int64
	failed    atomic.Int64
	logged    atomic.Int64
}

func (o *ops) fail(format string, args ...any) {
	o.failed.Add(1)
	if o.logged.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: failure: "+format+"\n", args...)
	}
}

// env is one running LAN with the benchmark's servers and connections.
type env struct {
	w   string
	pl  *payload
	lan *core.LAN
	dst netpkt.IPAddr
	ops *ops
	tr  atomic.Pointer[spanRecorder] // nil when not tracing

	srv  *sock.Client // node B: echo server and bulk sinks
	load *sock.Client // node A: the load generator
	echo *echoServer
	sink *sinkServer

	streams []*stream      // bulk, lossy
	rrConns []*sock.Socket // rr
	idle    []*sock.Socket // churn_swap's held population

	heapPerConn float64
	conns       atomic.Int64 // connections established
	nextReq     atomic.Uint64
	retired     []proc.Service // swapped-out incarnations, loops exited
	phases      []swapRecord
}

type swapRecord struct {
	pause                           time.Duration
	drain, transfer, rewire, resume time.Duration
}

func (e *env) req() uint64 { return e.nextReq.Add(1) }

// trc returns the span recorder, nil outside the traced phase.
func (e *env) trc() *spanRecorder { return e.tr.Load() }

// setUp builds and starts the LAN, opens the workload's connections and
// warms them up.
func setUp(w string, seed int64, pl *payload, o *ops) (*env, error) {
	cfg := core.SplitTSO()
	wcfg := nic.Gigabit()
	wcfg.Seed = seed
	switch w {
	case "lossy":
		wcfg.LossProb = lossyProb
	case "churn_swap":
		cfg.TCPShards = churnShard
	}
	lan, err := core.NewLAN(cfg, 1, wcfg)
	if err != nil {
		return nil, err
	}
	if err := lan.Start(); err != nil {
		lan.Stop()
		return nil, err
	}
	e := &env{w: w, pl: pl, lan: lan, dst: lan.IPOf("b", 0), ops: o}
	if err := e.startServers(); err != nil {
		e.tearDown()
		return nil, err
	}
	if err := e.openLoad(); err != nil {
		e.tearDown()
		return nil, err
	}
	return e, nil
}

func (e *env) startServers() error {
	var err error
	if e.srv, err = sock.NewClient(e.lan.B.Hub, "bench-server"); err != nil {
		return err
	}
	if e.load, err = sock.NewClient(e.lan.A.Hub, "bench-load"); err != nil {
		return err
	}
	if e.echo, err = newEchoServer(e); err != nil {
		return err
	}
	if e.w == "bulk" || e.w == "lossy" {
		if e.sink, err = newSinkServer(e); err != nil {
			return err
		}
	}
	return nil
}

// openLoad opens the workload's held connections and warms the load path.
func (e *env) openLoad() error {
	switch e.w {
	case "bulk", "lossy":
		for i := 0; i < nproc; i++ {
			st, err := e.openStream(uint64(i))
			if err != nil {
				return err
			}
			e.streams = append(e.streams, st)
		}
		return e.warmStreams()
	case "rr":
		for i := 0; i < nproc; i++ {
			s, err := e.dial(e.load)
			if err != nil {
				return err
			}
			e.rrConns = append(e.rrConns, s)
		}
		_, err := e.rrLoop(e.rrConns, 50, nil)
		return err
	case "churn_swap":
		before := heapInUse()
		idle, err := e.openIdle(idlePop)
		if err != nil {
			return err
		}
		e.idle = idle
		e.heapPerConn = float64(int64(settledHeap())-int64(before)) / idlePop
		_, err = e.connLoop(20, nil)
		return err
	case "probe":
		return nil
	}
	return fmt.Errorf("unknown workload %q", e.w)
}

// dial opens one TCP connection to the echo server.
func (e *env) dial(c *sock.Client) (*sock.Socket, error) {
	s, err := c.Socket(sock.TCP)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	if err := s.Connect(e.dst, echoPort); err != nil {
		s.Close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	e.conns.Add(1)
	return s, nil
}

// openIdle opens n connections that stay idle, sharing one client.
func (e *env) openIdle(n int) ([]*sock.Socket, error) {
	const workers = 8
	out := make([]*sock.Socket, n)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				s, err := e.dial(e.load)
				if err != nil {
					errs <- fmt.Errorf("idle connection %d: %w", i, err)
					return
				}
				out[i] = s
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return out, <-errs
}

// settledHeap is heapInUse once the stack has quiesced: for a while after
// a burst of connects it still holds transient state (pcb-table snapshots
// in storage, grown pools, TIME_WAIT pcbs) that would count as
// per-connection cost.
func settledHeap() uint64 {
	time.Sleep(300 * time.Millisecond)
	return heapInUse()
}

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// tearDown stops everything setUp started and waits for it.
func (e *env) tearDown() {
	if e.load != nil {
		e.load.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.echo != nil {
		<-e.echo.done
	}
	if e.sink != nil {
		e.sink.wg.Wait()
	}
	e.lan.Stop()
}

// ---- bulk ----

// stream is one A→B bulk connection: an 8-byte id header, then the
// payload from streamBase(id).
type stream struct {
	id   uint64
	s    *sock.Socket
	sent uint64
}

func (e *env) openStream(id uint64) (*stream, error) {
	s, err := e.load.Socket(sock.TCP)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	if err := s.Connect(e.dst, sinkPort); err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	e.conns.Add(1)
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], id)
	if _, err := s.Send(hdr[:]); err != nil {
		return nil, fmt.Errorf("send header: %w", err)
	}
	return &stream{id: id, s: s}, nil
}

// sendChunk writes the stream's next chunk.
func (e *env) sendChunk(st *stream) error {
	req := e.req()
	return e.trc().call("sock.send", -1, req, func() error {
		n, err := st.s.Send(e.pl.at(streamBase(st.id)+st.sent, chunkSize))
		st.sent += uint64(n)
		return err
	})
}

// warmStreams sends 32 chunks per stream and waits until the sinks have
// verified them, so the measured phase starts with open windows.
func (e *env) warmStreams() error {
	var wg sync.WaitGroup
	errs := make(chan error, len(e.streams))
	for _, st := range e.streams {
		wg.Add(1)
		go func(st *stream) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				if err := e.sendChunk(st); err != nil {
					errs <- err
					return
				}
			}
		}(st)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	return e.drainStreams()
}

// drainStreams waits until the sinks have verified every byte sent, so
// nothing the streams wrote is still in flight.
func (e *env) drainStreams() error {
	var want uint64
	for _, st := range e.streams {
		want += st.sent
	}
	deadline := time.Now().Add(opTimeout)
	for e.sink.received.Load() < want {
		if time.Now().After(deadline) {
			return errors.New("bulk: sinks stalled")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// bulkLoop streams until stop closes; each chunk written is one operation.
func (e *env) bulkLoop(stop <-chan struct{}) {
	var wg sync.WaitGroup
	for _, st := range e.streams {
		wg.Add(1)
		go func(st *stream) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.ops.attempted.Add(1)
				_ = st.s.SetWriteDeadline(time.Now().Add(opTimeout))
				if err := e.sendChunk(st); err != nil {
					e.ops.fail("bulk stream %d send: %v", st.id, err)
					return
				}
			}
		}(st)
	}
	wg.Wait()
}

// closeStreams ends the bulk streams and checks that the sinks verified
// every byte that was sent.
func (e *env) closeStreams() {
	var sent uint64
	for _, st := range e.streams {
		sent += st.sent
		if err := st.s.Close(); err != nil {
			e.ops.fail("bulk stream %d close: %v", st.id, err)
		}
	}
	e.streams = nil
	select {
	case <-e.sink.eofs:
	case <-time.After(opTimeout):
		e.ops.fail("bulk: sinks did not see end of stream")
		return
	}
	if got := e.sink.received.Load(); got != sent {
		e.ops.fail("bulk: sent %d bytes, sinks verified %d", sent, got)
	}
}

// sinkServer accepts the bulk streams on node B and verifies every byte.
type sinkServer struct {
	e        *env
	l        *sock.Socket
	received atomic.Uint64 // payload bytes verified, all streams
	wg       sync.WaitGroup
	eofs     chan struct{} // closed once every stream has ended
	ended    atomic.Int32
}

func newSinkServer(e *env) (*sinkServer, error) {
	l, err := e.srv.Socket(sock.TCP)
	if err != nil {
		return nil, err
	}
	if err := l.Bind(sinkPort); err != nil {
		return nil, err
	}
	if err := l.Listen(nproc); err != nil {
		return nil, err
	}
	k := &sinkServer{e: e, l: l, eofs: make(chan struct{})}
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		for i := 0; i < nproc; i++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			k.wg.Add(1)
			go func() {
				defer k.wg.Done()
				k.drain(c)
			}()
		}
	}()
	return k, nil
}

// drain reads one stream to its end, verifying it against the payload.
func (k *sinkServer) drain(c *sock.Socket) {
	e := k.e
	var hdr [8]byte
	if err := readFull(c, hdr[:]); err != nil {
		return
	}
	id := binary.LittleEndian.Uint64(hdr[:])
	buf := make([]byte, chunkSize)
	var off uint64
	for {
		var n int
		err := e.trc().call("sock.recv", -1, id, func() (err error) {
			n, err = c.Recv(buf)
			return err
		})
		if err != nil {
			if !errors.Is(err, sock.ErrClosed) {
				e.ops.fail("bulk sink %d recv: %v", id, err)
			}
			return
		}
		if n == 0 {
			if k.ended.Add(1) == nproc {
				close(k.eofs)
			}
			return
		}
		if !bytes.Equal(buf[:n], e.pl.at(streamBase(id)+off, n)) {
			e.ops.fail("bulk sink %d: byte mismatch at offset %d", id, off)
			return
		}
		off += uint64(n)
		k.received.Add(uint64(n))
	}
}

func readFull(s *sock.Socket, p []byte) error {
	for got := 0; got < len(p); {
		n, err := s.Recv(p[got:])
		if err != nil {
			return err
		}
		if n == 0 {
			return errors.New("unexpected end of stream")
		}
		got += n
	}
	return nil
}

// ---- request/response ----

// echoRound sends one seeded request on s and verifies the echo. It
// returns the round-trip time.
func (e *env) echoRound(s *sock.Socket, conn, k uint64, parent int, req uint64) (time.Duration, error) {
	want := e.pl.at(msgOffset(conn, k), msgSize)
	t0 := time.Now()
	if err := e.trc().call("sock.send", parent, req, func() error {
		_, err := s.Send(want)
		return err
	}); err != nil {
		return 0, fmt.Errorf("send: %w", err)
	}
	var got [msgSize]byte
	if err := e.trc().call("sock.recv", parent, req, func() error {
		return readFull(s, got[:])
	}); err != nil {
		return 0, fmt.Errorf("recv: %w", err)
	}
	rtt := time.Since(t0)
	if !bytes.Equal(got[:], want) {
		return rtt, errors.New("echo mismatch")
	}
	return rtt, nil
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	rtt     samples // request/response round trips
	conn    samples // connect + echo + close
	start   time.Time
	elapsed time.Duration
}

// rrLoop runs a closed request/response loop on each connection, for
// rounds round trips each, or until stop closes when rounds is 0.
func (e *env) rrLoop(conns []*sock.Socket, rounds int, stop <-chan struct{}) (*loopResult, error) {
	res := &loopResult{start: time.Now()}
	var wg sync.WaitGroup
	errs := make(chan error, len(conns))
	for i, s := range conns {
		wg.Add(1)
		go func(c uint64, s *sock.Socket) {
			defer wg.Done()
			for k := uint64(0); rounds == 0 || k < uint64(rounds); k++ {
				if rounds == 0 && stopped(stop) {
					return
				}
				e.ops.attempted.Add(1)
				req := e.req()
				root := e.trc().begin("bench.rr", -1, req)
				_ = s.SetDeadline(time.Now().Add(opTimeout))
				rtt, err := e.echoRound(s, c, k, root, req)
				e.trc().end(root)
				if err != nil {
					e.ops.fail("rr conn %d round %d: %v", c, k, err)
					errs <- err
					return
				}
				res.rtt.add(rtt)
			}
		}(uint64(i), s)
	}
	wg.Wait()
	res.elapsed = time.Since(res.start)
	close(errs)
	return res, <-errs
}

// connLoop runs nproc clients that each loop over connect, one echo, and
// close, for cycles cycles each, or until stop closes when cycles is 0.
func (e *env) connLoop(cycles int, stop <-chan struct{}) (*loopResult, error) {
	res := &loopResult{start: time.Now()}
	var wg sync.WaitGroup
	errs := make(chan error, nproc)
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c uint64) {
			defer wg.Done()
			for k := uint64(0); cycles == 0 || k < uint64(cycles); k++ {
				if cycles == 0 && stopped(stop) {
					return
				}
				e.ops.attempted.Add(1)
				rtt, total, err := e.connCycle(c, k)
				if err != nil {
					e.ops.fail("conn client %d cycle %d: %v", c, k, err)
					errs <- err
					return
				}
				res.rtt.add(rtt)
				res.conn.add(total)
			}
		}(uint64(c) + 100)
	}
	wg.Wait()
	res.elapsed = time.Since(res.start)
	close(errs)
	return res, <-errs
}

// connCycle is one connect, one 64 B echo, and close. It returns the echo's
// round trip and the whole cycle's time.
func (e *env) connCycle(c, k uint64) (time.Duration, time.Duration, error) {
	req := e.req()
	t0 := time.Now()
	root := e.trc().begin("bench.conn", -1, req)
	defer e.trc().end(root)
	var s *sock.Socket
	if err := e.trc().call("sock.socket", root, req, func() (err error) {
		s, err = e.load.Socket(sock.TCP)
		return err
	}); err != nil {
		return 0, 0, fmt.Errorf("socket: %w", err)
	}
	_ = s.SetDeadline(time.Now().Add(opTimeout))
	if err := e.trc().call("sock.connect", root, req, func() error {
		return s.Connect(e.dst, echoPort)
	}); err != nil {
		s.Close()
		return 0, 0, fmt.Errorf("connect: %w", err)
	}
	e.conns.Add(1)
	rtt, err := e.echoRound(s, c, k, root, req)
	if err != nil {
		s.Close()
		return 0, 0, err
	}
	if err := e.trc().call("sock.close", root, req, s.Close); err != nil {
		return 0, 0, fmt.Errorf("close: %w", err)
	}
	return rtt, time.Since(t0), nil
}

// stopAfter returns a channel closed after d.
func stopAfter(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(d, func() { close(ch) })
	return ch
}

func stopped(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// ---- live upgrades ----

// swap live-upgrades one component of node B and records its pause. The
// old incarnation's engine counters are read once Upgrade has returned,
// when its loop has exited.
func (e *env) swap(name string) error {
	e.ops.attempted.Add(1)
	p := e.lan.B.Proc(name)
	if p == nil {
		e.ops.fail("swap %s: no such component", name)
		return fmt.Errorf("no component %s", name)
	}
	old := p.Service()
	req := e.req()
	t0 := time.Now()
	root := e.trc().begin("liveup.upgrade", -1, req)
	ph, err := e.lan.B.Upgrade(name)
	e.trc().end(root)
	pause := time.Since(t0)
	if err != nil {
		e.ops.fail("swap %s: %v", name, err)
		return err
	}
	if !ph.Live {
		e.ops.fail("swap %s: not a live handoff", name)
		return fmt.Errorf("swap %s not live", name)
	}
	at := t0
	for _, x := range []struct {
		name string
		d    time.Duration
	}{{"liveup.drain", ph.Drain}, {"liveup.transfer", ph.Transfer}, {"liveup.rewire", ph.Rewire}, {"liveup.resume", ph.Resume}} {
		e.trc().add(x.name, at, at.Add(x.d), root, req)
		at = at.Add(x.d)
	}
	e.retired = append(e.retired, old)
	e.phases = append(e.phases, swapRecord{pause, ph.Drain, ph.Transfer, ph.Rewire, ph.Resume})
	return nil
}

// swapLoop upgrades names in rotation every swapEvery until stop closes.
func (e *env) swapLoop(names []string, stop <-chan struct{}) {
	t := time.NewTicker(swapEvery)
	defer t.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if e.swap(names[i%len(names)]) != nil {
			return
		}
	}
}

// swapNames lists node B's transports in upgrade rotation order.
func (e *env) swapNames() []string {
	var out []string
	for _, c := range e.lan.B.Components() {
		if c == core.CompIP || c == core.CompPF || c == "eth0" {
			continue
		}
		out = append(out, c)
	}
	return out
}

// ---- echo server ----

// echoServer is node B's event-driven echo service: one goroutine serves
// the listener and every accepted connection through one Poller.
type echoServer struct {
	e    *env
	l    *sock.Socket
	done chan struct{}
}

func newEchoServer(e *env) (*echoServer, error) {
	l, err := e.srv.Socket(sock.TCP)
	if err != nil {
		return nil, err
	}
	if err := l.Bind(echoPort); err != nil {
		return nil, err
	}
	if err := l.Listen(4096); err != nil {
		return nil, err
	}
	s := &echoServer{e: e, l: l, done: make(chan struct{})}
	go s.run()
	return s, nil
}

// run serves until the server's client closes.
func (s *echoServer) run() {
	defer close(s.done)
	p := s.e.srv.NewPoller()
	defer p.Close()
	s.l.SetNonblock(true)
	if err := p.Add(s.l, msg.EvAcceptReady|msg.EvError); err != nil {
		return
	}
	buf := make([]byte, chunkSize)
	pending := map[*sock.Socket][]byte{}
	closeConn := func(c *sock.Socket) {
		p.Del(c)
		delete(pending, c)
		_ = c.Close()
	}
	// write echoes data, parking what the socket does not take yet. Data
	// that arrives while some is parked queues behind it, so the echo keeps
	// its order.
	write := func(c *sock.Socket, data []byte) bool {
		if len(pending[c]) > 0 {
			pending[c] = append(pending[c], data...)
			return true
		}
		for len(data) > 0 {
			n, err := c.Send(data)
			data = data[n:]
			if errors.Is(err, sock.ErrWouldBlock) || (err == nil && n == 0) {
				pending[c] = append(pending[c], data...)
				return true
			}
			if err != nil {
				closeConn(c)
				return false
			}
		}
		return true
	}
	for {
		events, err := p.Wait(-1)
		if err != nil {
			return
		}
		for _, ev := range events {
			if ev.Sock == s.l {
				s.acceptAll(p)
				continue
			}
			c := ev.Sock
			if q := pending[c]; len(q) > 0 {
				delete(pending, c)
				if !write(c, q) || len(pending[c]) > 0 {
					continue
				}
			}
			for {
				n, err := c.Recv(buf)
				if errors.Is(err, sock.ErrWouldBlock) {
					break
				}
				if err != nil || n == 0 {
					closeConn(c)
					break
				}
				if !write(c, buf[:n]) {
					break
				}
			}
		}
	}
}

func (s *echoServer) acceptAll(p *sock.Poller) {
	for {
		t0 := time.Now()
		c, err := s.l.Accept()
		if err != nil {
			return
		}
		s.e.trc().add("sock.accept", t0, time.Now(), -1, 0)
		c.SetNonblock(true)
		if err := p.Add(c, msg.EvReadable|msg.EvWritable|msg.EvEOF|msg.EvError); err != nil {
			_ = c.Close()
		}
	}
}
