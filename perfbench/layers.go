package main

import (
	"regexp"
	"sort"

	"newtos/internal/channel"
	"newtos/internal/core"
	"newtos/internal/ipsrv"
	"newtos/internal/pf"
	"newtos/internal/proc"
	"newtos/internal/tcpsrv"
)

// counters sums the engine counters the per-layer metrics need. Engine
// counters are plain fields owned by the server loop, so they are read only
// from an incarnation whose loop has exited: the old one after Upgrade
// returns, or every one after LAN.Stop.
type counters struct {
	segsOut, retransmits, fastRetx, dupAcksIn uint64
	dropsOOO, dropsDup, dropsWindow           uint64
	tickCount, tickNanos                      uint64
	groDeliveries, groCoalesced               uint64
	dropsRingFull, rxPressure                 uint64
	statesCreated, stateHits, pfPassed        uint64
}

// engineCounters sums the counters of the retired incarnations (swapped
// out, loops exited) and the last live ones (after LAN.Stop). A TCP engine
// hands its Stats to its successor in a live handoff, so the last
// incarnation's Stats already cover every predecessor's; only the tick
// counters start at zero in each incarnation and are summed over all.
func engineCounters(retired, live []proc.Service) counters {
	var c counters
	for _, svc := range retired {
		if s, ok := svc.(*tcpsrv.Server); ok {
			c.addTicks(s)
		}
	}
	for _, svc := range live {
		c.addLive(svc)
	}
	return c
}

func (c *counters) addTicks(s *tcpsrv.Server) {
	n, ns := s.Engine().TickStats()
	c.tickCount += n
	c.tickNanos += ns
}

// addLive adds the engine counters of one last incarnation.
func (c *counters) addLive(svc proc.Service) {
	switch s := svc.(type) {
	case *tcpsrv.Server:
		st := s.Engine().Stats()
		c.segsOut += st.SegsOut
		c.retransmits += st.Retransmits
		c.fastRetx += st.FastRetx
		c.dupAcksIn += st.DupAcksIn
		c.dropsOOO += st.DropsOOO
		c.dropsDup += st.DropsDup
		c.dropsWindow += st.DropsWindow
		c.addTicks(s)
	case *ipsrv.Server:
		st := s.Engine().Stats()
		c.groDeliveries += st.GRODeliveries
		c.groCoalesced += st.GROCoalesced
		c.dropsRingFull += st.DropsRingFull
		c.rxPressure += st.RxPressure
	case *pf.Server:
		st := s.Engine().Stats()
		c.statesCreated += st.StatesCreated
		c.stateHits += st.StateHits
		c.pfPassed += st.Passed
	}
}

// liveServices returns the running incarnation of every component on both
// nodes. Call it before LAN.Stop and read the counters after.
func liveServices(lan *core.LAN) []proc.Service {
	var out []proc.Service
	for _, n := range []*core.Node{lan.A, lan.B} {
		for _, name := range n.Components() {
			if svc := n.Proc(name).Service(); svc != nil {
				out = append(out, svc)
			}
		}
	}
	return out
}

// shardSuffix folds TCP shard names ("tcp0", "sc-tcp1") onto the unsharded
// name, so every workload reports the same edges.
var shardSuffix = regexp.MustCompile(`tcp\d+$`)

func edgeName(key string) string { return shardSuffix.ReplaceAllString(key, "tcp") }

// batchCount is one channel's traffic: requests moved and batches they
// moved in.
type batchCount struct{ msgs, batches uint64 }

// ipcCounters reads the doorbell wake-ups of every component and the batch
// counters of every channel, summed over both nodes. They are atomics, so
// they may be read while the stack runs.
func ipcCounters(lan *core.LAN) (bells map[string]uint64, chans map[string]batchCount) {
	bells = make(map[string]uint64)
	chans = make(map[string]batchCount)
	for _, n := range []*core.Node{lan.A, lan.B} {
		reg := n.Hub.Reg
		for _, key := range reg.Keys("bell/") {
			a, ok := reg.Get(key)
			if b, isBell := a.Value.(*channel.Doorbell); ok && isBell {
				bells[edgeName(key[len("bell/"):])] += b.Wakeups()
			}
		}
		for _, key := range reg.Keys("chan/") {
			a, ok := reg.Get(key)
			d, isDuplex := a.Value.(channel.Duplex)
			if !ok || !isDuplex {
				continue
			}
			name := edgeName(key[len("chan/"):])
			c := chans[name]
			// The registry holds the attaching side's end: its Out
			// counts what it sent, its In what it received, so the two
			// cover both directions of the edge.
			for _, bc := range []interface {
				Msgs() uint64
				Batches() uint64
			}{d.Out.Stats(), d.In.Stats()} {
				c.msgs += bc.Msgs()
				c.batches += bc.Batches()
			}
			chans[name] = c
		}
	}
	return bells, chans
}

// Edges and doorbells the per-layer metrics report. The registry of the
// flagship configuration holds exactly these (TCP shards folded).
var (
	reportedEdges = []string{"ip-eth0", "ip-pf", "ip-tcp", "ip-udp", "sc-pf", "sc-tcp", "sc-udp"}
	reportedBells = []string{"eth0", "ip", "pf", "sc", "tcp", "udp"}
)

// reportedModules are the repo modules linked into the benchmark, the
// population of the cpu.<module>.share and alloc.<module>.share metrics.
var reportedModules = []string{
	"affinity", "channel", "core", "driver", "faults", "ipeng", "ipsrv",
	"kipc", "liveup", "msg", "netpkt", "nic", "pf", "pfeng", "proc",
	"reinc", "shm", "sock", "sockbuf", "spsc", "storage", "syscallsrv",
	"tcpeng", "tcpsrv", "trace", "udpeng", "udpsrv", "wiring",
	benchModule, runtimeModule,
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
