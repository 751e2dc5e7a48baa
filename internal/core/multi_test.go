package core

import (
	"errors"
	"reflect"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
	"dragonfly/internal/workload"
)

// coRunConfig makes jobs[0] the config's own job and the rest its co-run.
func coRunConfig(t *testing.T, jobs []JobSpec) Config {
	t.Helper()
	cfg := Config{
		Topology: topology.Mini(),
		Params:   network.DefaultParams(),
		Routing:  routing.Adaptive,
		Seed:     1,
	}
	if len(jobs) > 0 {
		own := jobs[0]
		cfg.Trace, cfg.Placement, cfg.Mapping, cfg.MsgScale = own.Trace, own.Placement, own.Mapping, own.MsgScale
		cfg.CoRun = jobs[1:]
	}
	return cfg
}

// jobsOf lists every job of a co-run result, the config's own job first.
func jobsOf(res *Result) []JobResult {
	own := JobResult{
		Name:      res.Config.WorkloadApp(),
		Placement: res.Config.Placement,
		CommTimes: res.CommTimes,
		AvgHops:   res.AvgHops,
		Nodes:     res.AppNodes,
		Routers:   res.AppRouters,
	}
	return append([]JobResult{own}, res.CoRun...)
}

func smallCR(t *testing.T, ranks int, bytes int64) *trace.Trace {
	t.Helper()
	tr, err := trace.CR(trace.CRConfig{Ranks: ranks, MessageBytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func smallAMG(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.AMG(trace.AMGConfig{X: 3, Y: 3, Z: 3, Cycles: 2, Levels: 3, PeakBytes: 8 * trace.KB})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// idleTrace is a job that holds its nodes but sends nothing.
func idleTrace(ranks int) *trace.Trace {
	tr := &trace.Trace{App: "idle", Ranks: make([][]trace.Op, ranks)}
	for r := range tr.Ranks {
		tr.Ranks[r] = []trace.Op{{Kind: trace.OpWaitAll}}
	}
	return tr
}

func TestRunMultiTwoJobsComplete(t *testing.T) {
	res, err := Run(coRunConfig(t, []JobSpec{
		{Name: "cr", Trace: smallCR(t, 16, 32*trace.KB), Placement: placement.RandomNode},
		{Name: "amg", Trace: smallAMG(t), Placement: placement.Contiguous},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("co-run did not complete")
	}
	if len(res.CoRun) != 1 {
		t.Fatalf("co-run jobs = %d", len(res.CoRun))
	}
	seen := map[topology.NodeID]bool{}
	for _, j := range jobsOf(res) {
		if j.MaxCommTime() <= 0 {
			t.Fatalf("job %s has nonpositive comm time", j.Name)
		}
		for _, n := range j.Nodes {
			if seen[n] {
				t.Fatalf("node %d shared between jobs", n)
			}
			seen[n] = true
		}
	}
}

// Three jobs filling the whole mini machine: allocations must partition the
// node set exactly — pairwise disjoint, jointly exhaustive — and every job
// still completes while overlapping in time with the others.
func TestRunMultiThreeJobsPartitionMachine(t *testing.T) {
	res, err := Run(coRunConfig(t, []JobSpec{
		{Name: "a", Trace: smallCR(t, 32, 16*trace.KB), Placement: placement.RandomNode},
		{Name: "b", Trace: smallCR(t, 16, 16*trace.KB), Placement: placement.RandomRouter},
		{Name: "c", Trace: smallCR(t, 16, 16*trace.KB), Placement: placement.Contiguous},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("full-machine co-run did not complete")
	}
	topo := topology.MustNew(topology.Mini())
	owner := make(map[topology.NodeID]string, topo.NumNodes())
	jobs := jobsOf(res)
	for _, j := range jobs {
		if len(j.Nodes) != len(j.CommTimes) {
			t.Fatalf("job %s: %d nodes for %d ranks", j.Name, len(j.Nodes), len(j.CommTimes))
		}
		for _, n := range j.Nodes {
			if prev, ok := owner[n]; ok {
				t.Fatalf("node %d owned by both %s and %s", n, prev, j.Name)
			}
			owner[n] = j.Name
		}
	}
	if len(owner) != topo.NumNodes() {
		t.Fatalf("jobs cover %d of %d nodes", len(owner), topo.NumNodes())
	}
	// Overlap in time, not serialization: the fabric ran all three jobs
	// concurrently, so the co-run is shorter than the jobs run back to back.
	var sum des.Time
	for _, j := range jobs {
		sum += j.MaxCommTime()
	}
	if res.Duration >= sum {
		t.Fatalf("no temporal overlap: duration %v >= serialized %v", res.Duration, sum)
	}
}

func TestRunMultiInterferenceVsIsolation(t *testing.T) {
	// The bully effect: AMG co-running with a heavy CR is slower than AMG
	// alone under the same placement and routing.
	amg := smallAMG(t)
	alone, err := Run(coRunConfig(t, []JobSpec{
		{Name: "amg", Trace: amg, Placement: placement.RandomNode},
	}))
	if err != nil {
		t.Fatal(err)
	}
	co, err := Run(coRunConfig(t, []JobSpec{
		{Name: "amg", Trace: amg, Placement: placement.RandomNode},
		{Name: "cr", Trace: smallCR(t, 32, 256*trace.KB), Placement: placement.RandomNode},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !co.Completed {
		t.Fatal("co-run did not complete")
	}
	if co.MaxCommTime() <= alone.MaxCommTime() {
		t.Fatalf("co-running did not slow AMG: alone %v, co %v", alone.MaxCommTime(), co.MaxCommTime())
	}
}

func TestRunMultiStaggeredStarts(t *testing.T) {
	late := 50 * des.Microsecond
	res, err := Run(coRunConfig(t, []JobSpec{
		{Name: "first", Trace: smallCR(t, 8, 16*trace.KB), Placement: placement.Contiguous},
		{Name: "second", Trace: smallCR(t, 8, 16*trace.KB), Placement: placement.Contiguous, Start: late},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("staggered co-run did not complete")
	}
	if res.Duration < late {
		t.Fatalf("run ended at %v, before the second job's start %v", res.Duration, late)
	}
}

func TestRunMultiRejectsOverCommitment(t *testing.T) {
	cr := smallCR(t, 8, trace.KB)
	for _, tc := range []struct {
		name string
		jobs []JobSpec
	}{
		{"over-commitment", []JobSpec{
			{Name: "a", Trace: smallCR(t, 48, trace.KB), Placement: placement.Contiguous},
			{Name: "b", Trace: smallCR(t, 48, trace.KB), Placement: placement.Contiguous},
		}},
		{"no job", nil},
		{"own job without trace", []JobSpec{{Name: "x"}}},
		{"co-run job without trace", []JobSpec{{Name: "a", Trace: cr}, {Name: "x"}}},
		{"negative start", []JobSpec{{Name: "a", Trace: cr}, {Name: "early", Trace: cr, Start: -5}}},
	} {
		if _, err := Run(coRunConfig(t, tc.jobs)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestRunMultiMaxSimTime(t *testing.T) {
	cfg := coRunConfig(t, []JobSpec{
		{Name: "cr", Trace: smallCR(t, 32, 512*trace.KB), Placement: placement.Contiguous},
		{Name: "amg", Trace: smallAMG(t), Placement: placement.RandomNode},
	})
	cfg.MaxSimTime = 5 * des.Microsecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("claimed completion despite tiny deadline")
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	build := func() Config {
		return coRunConfig(t, []JobSpec{
			{Name: "cr", Trace: smallCR(t, 16, 32*trace.KB), Placement: placement.RandomNode},
			{Name: "amg", Trace: smallAMG(t), Placement: placement.RandomCabinet},
		})
	}
	a, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "rerun", b, a)
	if !reflect.DeepEqual(a.CoRun, b.CoRun) {
		t.Fatal("nondeterministic co-run job results")
	}
}

// TestCoRunGetsRunFeatures: a co-run is an ordinary Run, so faults,
// background traffic, the watchdog and the auditor all apply to it.
func TestCoRunGetsRunFeatures(t *testing.T) {
	pair := func() Config {
		return coRunConfig(t, []JobSpec{
			{Name: "cr", Trace: smallCR(t, 16, 32*trace.KB), Placement: placement.RandomNode},
			{Name: "amg", Trace: smallAMG(t), Placement: placement.RandomCabinet},
		})
	}
	for _, tc := range []struct {
		name  string
		cfg   func() Config
		check func(t *testing.T, cfg Config)
	}{
		{
			// A degraded fabric: audit-clean, and identical across reruns and
			// RunBatch worker counts.
			name: "faults",
			cfg: func() Config {
				cfg := pair()
				cfg.Faults = &faults.Spec{GlobalFrac: 0.25, LocalFrac: 0.05, Seed: 3}
				cfg.Audit = true
				cfg.WatchdogEvents = 200_000_000
				return cfg
			},
			check: func(t *testing.T, cfg Config) {
				want, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want.Config.Params.Route.Health == nil {
					t.Fatal("fault spec was not wired into the co-run's fabric")
				}
				if want.Audit == nil || want.Audit.Stats.Routes == 0 || want.Audit.Stats.Violations != 0 {
					t.Fatalf("co-run audit: %+v", want.Audit)
				}
				got := []*Result{}
				again, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, again)
				for _, workers := range []int{1, 2} {
					batch, err := RunBatch([]Config{cfg, cfg}, workers)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, batch...)
				}
				for _, res := range got {
					requireSameResult(t, "faulted co-run", res, want)
					if !reflect.DeepEqual(res.CoRun, want.CoRun) {
						t.Fatal("faulted co-run job results diverge")
					}
				}
			},
		},
		{
			// Background runs only on nodes no job holds: the idle co-run job
			// sends nothing, so none of its terminal channels may carry a byte,
			// while every node outside both jobs injects background traffic.
			name: "background",
			cfg: func() Config {
				cfg := coRunConfig(t, []JobSpec{
					{Name: "cr", Trace: smallCR(t, 16, 32*trace.KB), Placement: placement.RandomNode},
					{Name: "idle", Trace: idleTrace(16), Placement: placement.RandomRouter, Start: 200 * des.Microsecond},
				})
				cfg.Background = &workload.BackgroundConfig{
					Kind:     workload.UniformRandom,
					MsgBytes: 4 * 1024,
					Interval: 5 * des.Microsecond,
				}
				return cfg
			},
			check: func(t *testing.T, cfg Config) {
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Completed {
					t.Fatal("co-run under background did not complete")
				}
				if want := cfg.Background.PeakLoad(64 - 16 - 16); res.BackgroundPeakLoad != want {
					t.Fatalf("background peak load = %d, want %d (the nodes outside both jobs)",
						res.BackgroundPeakLoad, want)
				}
				idle := map[topology.NodeID]bool{}
				for _, n := range res.CoRun[0].Nodes {
					idle[n] = true
				}
				jobs := map[topology.NodeID]bool{}
				for _, j := range jobsOf(res) {
					for _, n := range j.Nodes {
						jobs[n] = true
					}
				}
				injected := 0
				for _, l := range res.Links {
					if l.Kind != routing.Terminal {
						continue
					}
					if idle[l.Node] && l.Bytes != 0 {
						t.Fatalf("idle co-run node %d carried %d bytes (eject=%v): background ran on it",
							l.Node, l.Bytes, l.Eject)
					}
					if !jobs[l.Node] && !l.Eject {
						if l.Bytes == 0 {
							t.Fatalf("node %d holds no job but injected no background traffic", l.Node)
						}
						injected++
					}
				}
				if injected != 64-16-16 {
					t.Fatalf("%d background injection channels, want %d", injected, 64-16-16)
				}
			},
		},
		{
			// A wedged co-run trips the watchdog as an error, not a partial
			// result.
			name: "watchdog",
			cfg: func() Config {
				cfg := pair()
				cfg.WatchdogEvents = 50
				return cfg
			},
			check: func(t *testing.T, cfg Config) {
				_, err := Run(cfg)
				var wd *des.WatchdogError
				if !errors.As(err, &wd) {
					t.Fatalf("err = %v, want a des.WatchdogError", err)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, tc.cfg()) })
	}
}

// TestCoRunDoesNotPerturbOwnJob: a co-run job that starts after the config's
// own job has finished leaves that job's placement and times untouched —
// co-run jobs draw from their own streams ("placement/1", "mapping/1"), after
// the own job's.
func TestCoRunDoesNotPerturbOwnJob(t *testing.T) {
	cfg := coRunConfig(t, []JobSpec{
		{Name: "cr", Trace: smallCR(t, 16, 32*trace.KB), Placement: placement.RandomNode},
	})
	alone, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CoRun = []JobSpec{{
		Name: "later", Trace: smallAMG(t), Placement: placement.RandomNode,
		Start: alone.Duration + des.Microsecond,
	}}
	with, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !with.Completed {
		t.Fatal("co-run did not complete")
	}
	if !reflect.DeepEqual(with.AppNodes, alone.AppNodes) {
		t.Fatal("a later co-run job moved the own job's allocation")
	}
	if !reflect.DeepEqual(with.CommTimes, alone.CommTimes) {
		t.Fatal("a later co-run job changed the own job's comm times")
	}
	if with.Duration <= alone.Duration {
		t.Fatalf("co-run ended at %v, before the later job could run", with.Duration)
	}
}
