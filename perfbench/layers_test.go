package main

import (
	"testing"

	"newtos/internal/core"
	"newtos/internal/tcpsrv"
)

// A live upgrade hands the TCP engine's counters to its successor, so a
// counter summed over incarnations would count the old one's segments
// twice. The tick counters are not handed over and are summed.
func TestEngineCountersAcrossUpgrade(t *testing.T) {
	o := &ops{}
	e, err := setUp("rr", 1, newPayload(1), o)
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			e.tearDown()
		}
	}()
	if _, err := e.rrLoop(e.rrConns, 100, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.swap(core.CompTCP); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rrLoop(e.rrConns, 10, nil); err != nil {
		t.Fatal(err)
	}
	e.finishLoad()
	live := liveServices(e.lan)
	last, _ := e.lan.B.Proc(core.CompTCP).Service().(*tcpsrv.Server)
	e.tearDown()
	stopped = true
	if o.failed.Load() != 0 {
		t.Fatalf("%d operations failed", o.failed.Load())
	}

	old := e.retired[0].(*tcpsrv.Server).Engine()
	if last == nil || last == e.retired[0] {
		t.Fatal("no live successor of node B's TCP")
	}
	oldSegs := old.Stats().SegsOut
	newSegs := last.Engine().Stats().SegsOut
	if oldSegs == 0 || newSegs <= oldSegs {
		t.Fatalf("segs_out old %d, successor %d: want the successor to carry the old count on", oldSegs, newSegs)
	}

	c := engineCounters(e.retired, live)
	var wantSegs, wantTicks uint64
	for _, svc := range live {
		if s, ok := svc.(*tcpsrv.Server); ok {
			wantSegs += s.Engine().Stats().SegsOut
			n, _ := s.Engine().TickStats()
			wantTicks += n
		}
	}
	oldTicks, _ := old.TickStats()
	wantTicks += oldTicks
	if c.segsOut != wantSegs {
		t.Errorf("segs_out = %d, want %d (the live incarnations' only)", c.segsOut, wantSegs)
	}
	if c.tickCount != wantTicks {
		t.Errorf("tick count = %d, want %d (every incarnation's)", c.tickCount, wantTicks)
	}
}
