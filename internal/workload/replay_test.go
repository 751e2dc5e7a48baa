package workload

import (
	"strings"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
)

func miniFabric(t *testing.T, mech routing.Mechanism, seed int64) *network.Fabric {
	t.Helper()
	eng := des.New()
	topo := topology.MustNew(topology.Mini())
	f, err := network.New(eng, topo, network.DefaultParams(), mech, des.NewRNG(seed, "f"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func contiguousNodes(n int) []topology.NodeID {
	out := make([]topology.NodeID, n)
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}

func TestReplayPairExchange(t *testing.T) {
	f := miniFabric(t, routing.Minimal, 1)
	tr := &trace.Trace{App: "pair", Ranks: [][]trace.Op{
		{
			{Kind: trace.OpISend, Peer: 1, Bytes: 10000, Tag: 0},
			{Kind: trace.OpIRecv, Peer: 1, Bytes: 10000, Tag: 0},
			{Kind: trace.OpWaitAll},
		},
		{
			{Kind: trace.OpISend, Peer: 0, Bytes: 10000, Tag: 0},
			{Kind: trace.OpIRecv, Peer: 0, Bytes: 10000, Tag: 0},
			{Kind: trace.OpWaitAll},
		},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReplay(f, Job{Name: "pair", Trace: tr, Nodes: contiguousNodes(2)})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	f.Engine().Run()
	if !r.Done() {
		t.Fatalf("replay stalled: %d/%d ranks done", r.RanksDone(), 2)
	}
	times := r.CommTimes()
	if times[0] <= 0 || times[1] <= 0 {
		t.Fatalf("comm times %v not positive", times)
	}
}

func TestReplayPhaseOrdering(t *testing.T) {
	// Rank 1's phase-2 send must not be injected before its phase-1 recv
	// completes: rank 0 measures that the second message arrives after it
	// sent the first.
	f := miniFabric(t, routing.Minimal, 2)
	tr := &trace.Trace{App: "phase", Ranks: [][]trace.Op{
		{
			{Kind: trace.OpISend, Peer: 1, Bytes: 100000, Tag: 0},
			{Kind: trace.OpWaitAll},
			{Kind: trace.OpIRecv, Peer: 1, Bytes: 100, Tag: 1},
			{Kind: trace.OpWaitAll},
		},
		{
			{Kind: trace.OpIRecv, Peer: 0, Bytes: 100000, Tag: 0},
			{Kind: trace.OpWaitAll},
			{Kind: trace.OpISend, Peer: 0, Bytes: 100, Tag: 1},
			{Kind: trace.OpWaitAll},
		},
	}}
	r, err := NewReplay(f, Job{Name: "phase", Trace: tr, Nodes: contiguousNodes(2)})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	f.Engine().Run()
	if !r.Done() {
		t.Fatal("replay stalled")
	}
	times := r.CommTimes()
	// Rank 0 finishes strictly after rank 1 started its phase-2 send,
	// which itself is after the 100 KB transfer completed; both ranks'
	// times must therefore exceed the 100 KB serialization alone.
	minTime := des.Time(100000 * 1e9 / network.DefaultParams().TerminalBandwidth)
	if times[0] <= minTime {
		t.Fatalf("rank 0 time %v too small for two dependent phases", times[0])
	}
}

func TestReplayAppTraces(t *testing.T) {
	// Scaled-down versions of all three applications replay to completion
	// under every placement policy and both routing mechanisms.
	crT, _ := trace.CR(trace.CRConfig{Ranks: 32, MessageBytes: 8 * trace.KB})
	fbT, _ := trace.FB(trace.FBConfig{X: 3, Y: 3, Z: 3, Iterations: 2,
		MinBytes: trace.KB, MaxBytes: 16 * trace.KB, FarPartners: 1, FarFraction: 0.1, Seed: 3})
	amgT, _ := trace.AMG(trace.AMGConfig{X: 3, Y: 3, Z: 3, Cycles: 2, Levels: 3, PeakBytes: 12 * trace.KB})
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{{"cr", crT}, {"fb", fbT}, {"amg", amgT}} {
		for _, pol := range placement.All() {
			for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
				f := miniFabric(t, mech, 7)
				nodes, err := placement.Allocate(f.Topology(), pol, tc.tr.NumRanks(), des.NewRNG(5, "alloc"))
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewReplay(f, Job{Name: tc.name, Trace: tc.tr, Nodes: nodes})
				if err != nil {
					t.Fatal(err)
				}
				r.Start()
				f.Engine().Run()
				if !r.Done() {
					t.Fatalf("%s under %v-%v stalled: %d/%d ranks",
						tc.name, pol, mech, r.RanksDone(), tc.tr.NumRanks())
				}
				if r.MaxCommTime() <= 0 {
					t.Fatalf("%s under %v-%v: nonpositive comm time", tc.name, pol, mech)
				}
			}
		}
	}
}

func TestReplayMsgScale(t *testing.T) {
	run := func(scale float64) des.Time {
		f := miniFabric(t, routing.Minimal, 3)
		tr, _ := trace.CR(trace.CRConfig{Ranks: 16, MessageBytes: 64 * trace.KB})
		r, err := NewReplay(f, Job{Name: "cr", Trace: tr, Nodes: contiguousNodes(16), MsgScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		f.Engine().Run()
		if !r.Done() {
			t.Fatal("stalled")
		}
		return r.MaxCommTime()
	}
	half, full, double := run(0.5), run(1), run(2)
	if !(half < full && full < double) {
		t.Fatalf("scaling not monotone: 0.5x=%v 1x=%v 2x=%v", half, full, double)
	}
	// Heavier loads are bandwidth-bound, so doubling should come out
	// roughly 2x, well above 1.5x.
	if float64(double) < 1.5*float64(full) {
		t.Fatalf("2x scale only %v vs %v", double, full)
	}
}

func TestReplayStartOffset(t *testing.T) {
	f := miniFabric(t, routing.Minimal, 4)
	tr, _ := trace.CR(trace.CRConfig{Ranks: 4, MessageBytes: trace.KB})
	start := 5 * des.Millisecond
	r, _ := NewReplay(f, Job{Name: "late", Trace: tr, Nodes: contiguousNodes(4), Start: start})
	r.Start()
	end := f.Engine().Run()
	if end < start {
		t.Fatalf("finished %v before job start %v", end, start)
	}
	for i, ct := range r.CommTimes() {
		if ct <= 0 || ct > end-start {
			t.Fatalf("rank %d comm time %v not within (0, %v]", i, ct, end-start)
		}
	}
}

func TestReplayRejectsBadJobs(t *testing.T) {
	f := miniFabric(t, routing.Minimal, 5)
	tr, _ := trace.CR(trace.CRConfig{Ranks: 8, MessageBytes: trace.KB})
	if _, err := NewReplay(f, Job{Trace: tr, Nodes: contiguousNodes(4)}); err == nil {
		t.Error("accepted job with too few nodes")
	}
	dup := contiguousNodes(8)
	dup[3] = dup[2]
	if _, err := NewReplay(f, Job{Trace: tr, Nodes: dup}); err == nil {
		t.Error("accepted duplicate node mapping")
	}
	out := contiguousNodes(8)
	out[0] = topology.NodeID(f.NodeCount())
	if _, err := NewReplay(f, Job{Trace: tr, Nodes: out}); err == nil {
		t.Error("accepted out-of-range node")
	}
	empty := &trace.Trace{App: "empty"}
	if _, err := NewReplay(f, Job{Trace: empty}); err == nil {
		t.Error("accepted rankless trace")
	}
	// A negative start would schedule before the engine's clock; it must be
	// a config error, not a scheduler panic.
	if _, err := NewReplay(f, Job{Trace: tr, Nodes: contiguousNodes(8), Start: -5}); err == nil ||
		!strings.HasPrefix(err.Error(), "workload:") {
		t.Errorf("negative start: err = %v, want a workload: error", err)
	}
}

func TestReplayUnexpectedMessageBeforeRecvPosted(t *testing.T) {
	// Rank 1 posts its receive only in phase 2, after the message from
	// rank 0 has long arrived: the surplus path must match it.
	f := miniFabric(t, routing.Minimal, 6)
	tr := &trace.Trace{App: "early", Ranks: [][]trace.Op{
		{
			{Kind: trace.OpISend, Peer: 1, Bytes: 100, Tag: 7},
			{Kind: trace.OpWaitAll},
		},
		{
			// Phase 1: a slow self-contained exchange with rank 2.
			{Kind: trace.OpISend, Peer: 2, Bytes: 1 << 20, Tag: 0},
			{Kind: trace.OpIRecv, Peer: 2, Bytes: 1 << 20, Tag: 0},
			{Kind: trace.OpWaitAll},
			// Phase 2: now post the receive for rank 0's early message.
			{Kind: trace.OpIRecv, Peer: 0, Bytes: 100, Tag: 7},
			{Kind: trace.OpWaitAll},
		},
		{
			{Kind: trace.OpISend, Peer: 1, Bytes: 1 << 20, Tag: 0},
			{Kind: trace.OpIRecv, Peer: 1, Bytes: 1 << 20, Tag: 0},
			{Kind: trace.OpWaitAll},
		},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReplay(f, Job{Name: "early", Trace: tr, Nodes: contiguousNodes(3)})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	f.Engine().Run()
	if !r.Done() {
		t.Fatalf("stalled with unexpected-message matching: %d/3 done", r.RanksDone())
	}
}

func TestAvgHopsPerRankPopulated(t *testing.T) {
	f := miniFabric(t, routing.Minimal, 8)
	tr, _ := trace.CR(trace.CRConfig{Ranks: 16, MessageBytes: 4 * trace.KB})
	nodes, _ := placement.Allocate(f.Topology(), placement.RandomNode, 16, des.NewRNG(9, "a"))
	r, _ := NewReplay(f, Job{Name: "hops", Trace: tr, Nodes: nodes})
	r.Start()
	f.Engine().Run()
	hops := r.AvgHopsPerRank()
	for i, h := range hops {
		if h < 1 || h > 6 {
			t.Fatalf("rank %d avg hops %v outside [1,6]", i, h)
		}
	}
}

func TestReplayDeterministic(t *testing.T) {
	run := func() des.Time {
		f := miniFabric(t, routing.Adaptive, 11)
		tr, _ := trace.FB(trace.FBConfig{X: 3, Y: 3, Z: 3, Iterations: 2,
			MinBytes: trace.KB, MaxBytes: 8 * trace.KB, FarPartners: 1, FarFraction: 0.2, Seed: 2})
		nodes, _ := placement.Allocate(f.Topology(), placement.RandomNode, tr.NumRanks(), des.NewRNG(13, "a"))
		r, _ := NewReplay(f, Job{Name: "det", Trace: tr, Nodes: nodes})
		r.Start()
		f.Engine().Run()
		return r.MaxCommTime()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic replay: %v vs %v", a, b)
	}
}
