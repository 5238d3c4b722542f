package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "bench.conn", Start: 0, End: 100, Parent: -1},
		{Name: "sock.connect", Start: 10, End: 40, Parent: 0},
		{Name: "sock.send", Start: 30, End: 50, Parent: 0},   // overlaps connect
		{Name: "sock.close", Start: 90, End: 120, Parent: 0}, // runs past parent
		{Name: "liveup.upgrade", Start: 0, End: 10, Parent: -1},
		{Name: "liveup.drain", Start: 0, End: 4, Parent: 4},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":  100 - 40 - 10, // children cover [10,50) and [90,100)
		"sock":   30 + 20 + 30,
		"liveup": 6 + 4,
	}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("self[%s] = %v, want %v", l, self[l], w)
		}
	}
}

func TestSpanRecorderParentsAndOpenSpans(t *testing.T) {
	var nilRec *spanRecorder
	if id := nilRec.begin("sock.send", -1, 1); id != -1 {
		t.Fatalf("nil recorder begin = %d", id)
	}
	nilRec.end(-1)
	r := newSpanRecorder()
	r.begin("sock.recv", -1, 1) // never closed: dropped
	root := r.begin("bench.rr", -1, 2)
	child := r.begin("sock.send", root, 2)
	r.end(child)
	r.end(root)
	got := r.snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot kept %d spans, want 2", len(got))
	}
	if got[0].Name != "bench.rr" || got[1].Parent != 0 || got[1].Req != 2 {
		t.Fatalf("snapshot = %+v", got)
	}
	if d := durations(got, "sock.send"); d.n() != 1 {
		t.Fatalf("durations n = %d", d.n())
	}
}
