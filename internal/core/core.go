// Package core orchestrates the paper's study: it wires a machine, places a
// job under one of the five placement policies, replays an application
// trace under minimal or adaptive routing — optionally against synthetic
// background traffic — and reports the four evaluation metrics. One Run is
// one cell of the paper's design space (Table I x application x load).
package core

import (
	"fmt"

	"dragonfly/internal/audit"
	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/mapping"
	"dragonfly/internal/metrics"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
	"dragonfly/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	Topology topology.Machine
	Params   network.Params

	Placement placement.Policy
	Routing   routing.Mechanism
	// Mapping assigns ranks to the allocated nodes; the zero value is the
	// paper's identity mapping. Alternatives implement the paper's
	// task-mapping future work (Sec. VI).
	Mapping mapping.Policy

	// Trace is the application to replay, as a flat op list; the replay
	// engine lowers it into the dependency-graph IR on the way in.
	Trace *trace.Trace
	// Graph is the application in dependency-graph IR (collective and
	// storage generators emit these directly). When set it takes precedence
	// over Trace.
	Graph *trace.Graph
	// MsgScale multiplies every message size (sensitivity study); 0 = 1.
	MsgScale float64

	// Background, when non-nil, runs the synthetic interference job on
	// every node not assigned to the application.
	Background *workload.BackgroundConfig

	// Seed drives every random stream of the run.
	Seed int64

	// Faults, when non-nil and non-empty, degrades the fabric before (and,
	// with scheduled events, during) the run: the spec resolves to a
	// deterministic fault set, routing turns fault-aware, and traffic lost
	// on dead equipment is dropped with exact accounting (see Result's
	// DroppedPackets/RouteErr). An empty spec leaves the run byte-identical
	// to a healthy one — the fault machinery is not even wired in.
	Faults *faults.Spec

	// MaxSimTime aborts a run at this simulated time (0 = unlimited); the
	// result then carries the partial progress, with Completed = false.
	MaxSimTime des.Time

	// WatchdogEvents / WatchdogTime arm the DES livelock watchdog: the run
	// fails with a diagnostic (instead of spinning forever) once it executes
	// that many events or passes that virtual time. Zero disables either
	// limit. Unlike MaxSimTime, a trip is an error, not a partial result —
	// it means the simulator wedged, which healthy and faulted runs alike
	// must never do.
	WatchdogEvents uint64
	WatchdogTime   des.Time

	// Audit attaches the runtime invariant auditor (package audit): credit
	// conservation, byte/packet conservation, VC-class monotonicity, time
	// monotonicity, and per-NIC FIFO injection are checked on every event.
	// A violation fails the run; Result.Audit carries the check counts.
	// Auditing observes without perturbing: results are bit-identical to an
	// unaudited run.
	Audit bool

	// CoRun lists further jobs that share the machine with this config's
	// own job. They are placed after it, in order, from the same free pool,
	// replayed on the same fabric under the same faults, and measured in
	// Result.CoRun; Background then runs on the nodes no job holds.
	CoRun []JobSpec
}

// Name returns the paper's abbreviation for the placement x routing cell,
// e.g. "cont-min" (Table I).
func (c Config) Name() string {
	return fmt.Sprintf("%s-%s", c.Placement, c.Routing)
}

// WorkloadApp returns the application name of the configured workload —
// Graph when set, Trace otherwise, "" when neither is configured.
func (c Config) WorkloadApp() string {
	if c.Graph != nil {
		return c.Graph.App
	}
	if c.Trace != nil {
		return c.Trace.App
	}
	return ""
}

// WorkloadRanks returns the rank count of the configured workload.
func (c Config) WorkloadRanks() int {
	if c.Graph != nil {
		return c.Graph.NumRanks()
	}
	if c.Trace != nil {
		return c.Trace.NumRanks()
	}
	return 0
}

// Result is the measured outcome of one run.
type Result struct {
	Config    Config
	Completed bool // every rank of every job finished before MaxSimTime

	// CommTimes is the per-rank communication time (Sec. III-E).
	CommTimes []des.Time
	// AvgHops is the per-rank mean routers traversed by received packets.
	AvgHops []float64
	// Links snapshots every directed channel's traffic and saturation.
	Links []network.LinkStat
	// AppRouters is the set of routers serving the application's nodes.
	AppRouters map[topology.RouterID]bool
	// AppNodes is the allocation, rank-ordered.
	AppNodes []topology.NodeID

	// BackgroundPeakLoad is the Table II quantity for the run's background
	// job (0 without background).
	BackgroundPeakLoad int64

	// Duration is the simulated time consumed; Events the DES event count.
	Duration des.Time
	Events   uint64

	// Faulted-fabric outcome: traffic lost on dead equipment, and the first
	// injection-time routing failure (wrapping routing.ErrUnreachable) when
	// the placement spanned a partition. The run still drains and closes
	// every message, so unreachability degrades to an accounted lossy result
	// rather than an error. All zero/nil on a healthy fabric.
	DroppedPackets int64
	DroppedBytes   int64
	RouteErr       error

	// Audit carries the invariant auditor's check counts and any recorded
	// violations; nil unless Config.Audit was set.
	Audit *audit.Summary

	// CoRun carries the measurements of Config.CoRun's jobs, in order.
	CoRun []JobResult
}

// MaxCommTime returns the slowest rank's communication time.
func (r *Result) MaxCommTime() des.Time { return maxTime(r.CommTimes) }

func maxTime(ts []des.Time) des.Time {
	var max des.Time
	for _, t := range ts {
		if t > max {
			max = t
		}
	}
	return max
}

// CommTimesMs returns per-rank communication times in milliseconds.
func (r *Result) CommTimesMs() []float64 { return metrics.CommTimesMs(r.CommTimes) }

// LocalTraffic returns MiB per local channel, machine-wide or (restrict)
// only for channels leaving the application's routers.
func (r *Result) LocalTraffic(restrict bool) []float64 {
	return metrics.ChannelTraffic(r.Links, routing.Local, r.filter(restrict))
}

// GlobalTraffic returns MiB per global channel.
func (r *Result) GlobalTraffic(restrict bool) []float64 {
	return metrics.ChannelTraffic(r.Links, routing.Global, r.filter(restrict))
}

// LocalSaturation returns milliseconds of saturation per local channel.
func (r *Result) LocalSaturation(restrict bool) []float64 {
	return metrics.ChannelSaturation(r.Links, routing.Local, r.filter(restrict))
}

// GlobalSaturation returns milliseconds of saturation per global channel.
func (r *Result) GlobalSaturation(restrict bool) []float64 {
	return metrics.ChannelSaturation(r.Links, routing.Global, r.filter(restrict))
}

func (r *Result) filter(restrict bool) map[topology.RouterID]bool {
	if restrict {
		return r.AppRouters
	}
	return nil
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Trace == nil && cfg.Graph == nil {
		return nil, fmt.Errorf("core: config has no workload (set Trace or Graph)")
	}
	if cfg.Topology == nil {
		return nil, fmt.Errorf("core: config has no machine (set Topology)")
	}
	topo, err := cfg.Topology.Build()
	if err != nil {
		return nil, err
	}
	eng := des.New()
	root := des.NewRNG(cfg.Seed, "core")
	// A non-empty fault spec degrades the fabric; an empty one is skipped
	// entirely so healthy runs stay byte-identical with or without the flag.
	var fset *faults.Set
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		fset, err = faults.Resolve(cfg.Faults, topo)
		if err != nil {
			return nil, err
		}
		cfg.Params.Route.Health = fset
	}
	fab, err := network.New(eng, topo, cfg.Params, cfg.Routing, root.Stream("fabric"))
	if err != nil {
		return nil, err
	}
	if fset != nil {
		for _, ev := range fset.Events() {
			ev := ev
			eng.At(ev.At, func() {
				fset.Apply(ev)
				fab.RecordHealthEvent(ev.At, ev.String())
				fab.ApplyHealthChange()
			})
		}
	}
	if cfg.WatchdogEvents > 0 || cfg.WatchdogTime > 0 {
		eng.SetWatchdog(cfg.WatchdogEvents, cfg.WatchdogTime, fab.WatchdogDiagnostic)
	}
	var aud *audit.Auditor
	if cfg.Audit {
		aud = audit.New(topo)
		fab.SetObserver(aud)
		eng.SetObserver(aud.EventExecuted)
	}

	// Every job is placed from one free pool: the config's own job first,
	// then each co-run job in order, so earlier jobs fragment later ones.
	pool := placement.NewPool(topo)
	rep, err := placeJob(fab, pool, root, "", cfg.Placement, cfg.Mapping, cfg.WorkloadRanks(), workload.Job{
		Name:     cfg.WorkloadApp(),
		Graph:    cfg.Graph,
		Trace:    cfg.Trace,
		MsgScale: cfg.MsgScale,
	})
	if err != nil {
		return nil, err
	}
	replays := []*workload.Replay{rep}
	for i, spec := range cfg.CoRun {
		if spec.Trace == nil {
			return nil, fmt.Errorf("core: co-run job %d (%q) has no trace", i+1, spec.Name)
		}
		co, err := placeJob(fab, pool, root, fmt.Sprintf("/%d", i+1), spec.Placement, spec.Mapping, spec.Trace.NumRanks(), workload.Job{
			Name:     spec.Name,
			Trace:    spec.Trace,
			MsgScale: spec.MsgScale,
			Start:    spec.Start,
		})
		if err != nil {
			return nil, fmt.Errorf("core: co-run job %d (%q): %w", i+1, spec.Name, err)
		}
		replays = append(replays, co)
	}

	var bg *workload.Background
	var peak int64
	if cfg.Background != nil {
		if err := cfg.Background.Validate(); err != nil {
			return nil, err
		}
		var used []topology.NodeID
		for _, r := range replays {
			used = append(used, r.Nodes()...)
		}
		rest := placement.Remaining(topo, used)
		bg = workload.StartBackground(fab, *cfg.Background, rest, root.Stream("background"))
		peak = cfg.Background.PeakLoad(len(rest))
	}

	for _, r := range replays {
		r.Start()
	}
	deadline := cfg.MaxSimTime
	if bg == nil && deadline == 0 {
		// No perpetual traffic source: the queue drains by itself.
		eng.Run()
	} else {
		for !allDone(replays) {
			if deadline > 0 && eng.Now() >= deadline {
				break
			}
			if !eng.Step() {
				break
			}
		}
	}
	if bg != nil {
		bg.Stop()
	}
	if err := eng.Tripped(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", cfg.Name(), err)
	}
	fab.FinishStats()

	res := &Result{
		Config:             cfg,
		Completed:          allDone(replays),
		CommTimes:          rep.CommTimes(),
		AvgHops:            rep.AvgHopsPerRank(),
		Links:              fab.LinkStats(),
		AppRouters:         metrics.RouterSet(topo, rep.Nodes()),
		AppNodes:           rep.Nodes(),
		BackgroundPeakLoad: peak,
		Duration:           eng.Now(),
		Events:             eng.Processed(),
		RouteErr:           fab.RouteError(),
	}
	res.DroppedPackets, res.DroppedBytes = fab.DropStats()
	for i, co := range replays[1:] {
		spec := cfg.CoRun[i]
		res.CoRun = append(res.CoRun, JobResult{
			Name:      spec.Name,
			Placement: spec.Placement,
			Completed: co.Done(),
			CommTimes: co.CommTimes(),
			AvgHops:   co.AvgHopsPerRank(),
			Nodes:     co.Nodes(),
			Routers:   metrics.RouterSet(topo, co.Nodes()),
		})
	}
	if aud != nil {
		aud.Finish(eng.Pending() == 0)
		s := aud.Summary()
		res.Audit = &s
		if err := aud.Err(); err != nil {
			return nil, fmt.Errorf("core: %s: %w", cfg.Name(), err)
		}
	}
	return res, nil
}

// placeJob allocates size nodes from the pool, maps the job's ranks onto
// them, and prepares its replay. The job's random streams are
// "placement"+suffix and "mapping"+suffix, drawn from root in that order.
func placeJob(fab *network.Fabric, pool *placement.Pool, root *des.RNG, suffix string,
	pol placement.Policy, mp mapping.Policy, size int, job workload.Job) (*workload.Replay, error) {
	nodes, err := placement.AllocateFrom(pool, pol, size, root.Stream("placement"+suffix))
	if err != nil {
		return nil, err
	}
	job.Nodes, err = mapping.Apply(mp, fab.Topology(), nodes, root.Stream("mapping"+suffix))
	if err != nil {
		return nil, err
	}
	return workload.NewReplay(fab, job)
}

// allDone reports whether every replay has finished.
func allDone(replays []*workload.Replay) bool {
	for _, r := range replays {
		if !r.Done() {
			return false
		}
	}
	return true
}
