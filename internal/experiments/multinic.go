package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
	"newtos/internal/sock"
	"newtos/internal/trace"
)

// MultiNICResult compares one wire against two into the same IP server.
type MultiNICResult struct {
	// SingleMbps is the flagship configuration over one gigabit wire.
	SingleMbps float64
	// AggregateMbps is the same configuration with two gigabit wires into
	// one IP server — the Table 2-style multi-NIC aggregate row. Per-driver
	// batching isolates the device edges, so this should exceed the
	// single-NIC row.
	AggregateMbps float64
}

// RunMultiNIC measures the multi-NIC aggregate: the flagship split stack
// (SplitTSO) serving bulk TCP over one wire, then over two wires at once,
// every link terminating in the same IP server.
func RunMultiNIC(opts Table2Opts) (MultiNICResult, error) {
	opts.fill()
	cfg := core.SplitTSO()
	single := opts
	single.Wires = 1
	s, err := RunLANTransfer(cfg, nic.Gigabit(), single)
	if err != nil {
		return MultiNICResult{}, fmt.Errorf("multinic single: %w", err)
	}
	double := opts
	double.Wires = 2
	d, err := RunLANTransfer(cfg, nic.Gigabit(), double)
	if err != nil {
		return MultiNICResult{}, fmt.Errorf("multinic double: %w", err)
	}
	return MultiNICResult{SingleMbps: s, AggregateMbps: d}, nil
}

// FailoverOpts tunes RunLinkFailover.
type FailoverOpts struct {
	// Warmup is how long the transfer runs before the link is cut
	// (default 300ms).
	Warmup time.Duration
	// Tail is how long the transfer keeps running after recovery is
	// observed, to prove the surviving path is stable (default 300ms).
	Tail time.Duration
	// RecoveryBytes is how far past the at-cut byte count the receiver
	// must progress to call the transfer recovered — comfortably more
	// than the in-flight window, so residue draining does not count
	// (default 256 KB).
	RecoveryBytes uint64
	// Timeout bounds the whole experiment (default 15s).
	Timeout time.Duration
}

func (o *FailoverOpts) fill() {
	if o.Warmup == 0 {
		o.Warmup = 300 * time.Millisecond
	}
	if o.Tail == 0 {
		o.Tail = 300 * time.Millisecond
	}
	if o.RecoveryBytes == 0 {
		o.RecoveryBytes = 256 * 1024
	}
	if o.Timeout == 0 {
		o.Timeout = 15 * time.Second
	}
}

// FailoverResult reports one mid-transfer link-down run.
type FailoverResult struct {
	// BytesSent/BytesReceived are the application-level transfer totals;
	// equal totals mean TCP delivered everything across the failover.
	BytesSent     uint64
	BytesReceived uint64
	// Recovery is the time from the administrative link-down until the
	// receiver progressed RecoveryBytes past its at-cut total over the
	// surviving NIC.
	Recovery time.Duration
	// SurvivorRxBytes is how much the receiver's second device took in
	// after the cut (the failed-over traffic).
	SurvivorRxBytes uint64
	// DeadRxFramesAfterCut counts frames the dead wire's receiving device
	// still delivered after carrier loss (should be 0).
	DeadRxFramesAfterCut uint64
}

// RunLinkFailover runs a bulk TCP transfer over wire 0 of a two-wire LAN
// (peer-gateway routes installed), administratively kills that wire mid
// transfer, and measures how long the connection takes to resume over the
// surviving wire — the link-state failover path end to end: device carrier
// loss on both ends, driver link events, IP route failover (ARP-pending
// re-route, weak-host acceptance of the dead wire's address on the
// survivor), and TCP's RTO-driven retransmission via the new route.
func RunLinkFailover(opts FailoverOpts) (FailoverResult, error) {
	opts.fill()
	cfg := core.SplitTSO()
	lan, err := core.NewLANOpt(cfg, 2, nic.Gigabit(), core.LANOpts{PeerGateways: true})
	if err != nil {
		return FailoverResult{}, err
	}
	defer lan.Stop()
	if err := lan.Start(); err != nil {
		return FailoverResult{}, err
	}

	const port = 7100
	var (
		meter    trace.Meter
		sent     atomic.Uint64
		received atomic.Uint64
		stop     = make(chan struct{})
		ready    = make(chan struct{})
		sinkDone = make(chan struct{})
		wg       sync.WaitGroup
		errs     = make(chan error, 2)
	)

	wg.Add(1)
	go func() { // sink on B, addressed via wire 0
		defer wg.Done()
		defer close(sinkDone)
		cli, err := sock.NewClient(lan.B.Hub, "fosink")
		if err != nil {
			errs <- err
			close(ready)
			return
		}
		cli.CallTimeout = opts.Timeout
		l, err := cli.Socket(sock.TCP)
		if err != nil || l.Bind(port) != nil || l.Listen(2) != nil {
			errs <- fmt.Errorf("failover sink setup: %v", err)
			close(ready)
			return
		}
		close(ready)
		conn, err := l.Accept()
		if err != nil {
			errs <- err
			return
		}
		buf := make([]byte, 256*1024)
		for {
			n, err := conn.Recv(buf)
			if err != nil || n == 0 {
				return // EOF: sender closed after the tail
			}
			meter.Add(n)
			received.Add(uint64(n))
		}
	}()

	wg.Add(1)
	go func() { // source on A
		defer wg.Done()
		<-ready
		cli, err := sock.NewClient(lan.A.Hub, "fosrc")
		if err != nil {
			errs <- err
			return
		}
		cli.CallTimeout = opts.Timeout
		s, err := cli.Socket(sock.TCP)
		if err != nil {
			errs <- err
			return
		}
		if err := s.Connect(lan.IPOf("b", 0), port); err != nil {
			errs <- err
			return
		}
		data := make([]byte, 64*1024)
		for {
			select {
			case <-stop:
				_ = s.Close()
				return
			default:
			}
			n, err := s.Send(data)
			sent.Add(uint64(n))
			if err != nil {
				errs <- fmt.Errorf("failover send: %w", err)
				return
			}
		}
	}()

	finish := func() {
		close(stop)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(opts.Timeout):
		}
	}

	// Warm up on wire 0, then cut it.
	time.Sleep(opts.Warmup)
	select {
	case err := <-errs:
		finish()
		return FailoverResult{}, err
	default:
	}
	deadDev := lan.DeviceOf("b", 0)
	survivorDev := lan.DeviceOf("b", 1)
	survivorBytesAtCut := survivorDev.Stats().RxBytes
	atCut := meter.Total()
	cutAt := time.Now()
	lan.SetLink("a", 0, false)
	// Sampled after the cut: frames completing up to it count as before
	// it, and the device drops any frame that had not completed by then.
	deadFramesAtCut := deadDev.Stats().RxFrames

	// Recovery: the receiver moves RecoveryBytes past its at-cut total.
	res := FailoverResult{}
	deadline := cutAt.Add(opts.Timeout)
	for meter.Total() < atCut+opts.RecoveryBytes {
		if time.Now().After(deadline) {
			finish()
			return res, fmt.Errorf("failover: no recovery within %v (received %d bytes past cut)",
				opts.Timeout, meter.Total()-atCut)
		}
		time.Sleep(time.Millisecond)
	}
	res.Recovery = time.Since(cutAt)

	// Prove the surviving path is stable, then wind down: the sender
	// closes, the sink drains to EOF, and the totals must match — TCP
	// delivered every byte across the failover.
	time.Sleep(opts.Tail)
	finish()
	select {
	case <-sinkDone:
	case <-time.After(opts.Timeout):
		return res, fmt.Errorf("failover: sink did not drain to EOF")
	}
	select {
	case err := <-errs:
		return res, err
	default:
	}
	res.BytesSent = sent.Load()
	res.BytesReceived = received.Load()
	res.SurvivorRxBytes = survivorDev.Stats().RxBytes - survivorBytesAtCut
	res.DeadRxFramesAfterCut = deadDev.Stats().RxFrames - deadFramesAtCut
	return res, nil
}
