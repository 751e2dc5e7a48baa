// Package dragonfly is the public API of a packet-level dragonfly network
// simulation library reproducing "Trade-Off Study of Localizing
// Communication and Balancing Network Traffic on a Dragonfly System"
// (Wang, Mubarak, Yang, Ross, Lan — IPDPS 2018).
//
// The library simulates a Cray XC40-style dragonfly (the paper's Theta
// machine) at packet granularity with credit-based flow control, replays
// application communication traces under five job placement policies and
// two routing mechanisms, optionally against synthetic background traffic,
// and reports the paper's metrics: communication time, average hops,
// per-channel traffic, and link saturation time.
//
// Quick start:
//
//	tr, _ := dragonfly.CRTrace(dragonfly.DefaultCR())
//	cfg := dragonfly.ThetaConfig(tr, dragonfly.Cell{
//		Placement: dragonfly.RandomNode,
//		Routing:   dragonfly.Minimal,
//	}, 1)
//	res, _ := dragonfly.Run(cfg)
//	fmt.Println(res.MaxCommTime())
//
// The full study — every table and figure of the paper — is driven by the
// Experiments runner (see cmd/dfsweep) or programmatically via NewRunner.
package dragonfly

import (
	"io"

	"dragonfly/internal/audit"
	"dragonfly/internal/chaos"
	"dragonfly/internal/core"
	"dragonfly/internal/des"
	"dragonfly/internal/experiments"
	"dragonfly/internal/farm"
	"dragonfly/internal/faults"
	"dragonfly/internal/mapping"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/sched"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
	"dragonfly/internal/workload"
)

// Simulation time (nanosecond ticks).
type Time = des.Time

// Time units.
const (
	Nanosecond  = des.Nanosecond
	Microsecond = des.Microsecond
	Millisecond = des.Millisecond
	Second      = des.Second
	// MaxTime is the latest schedulable instant (an "unbounded" deadline).
	MaxTime = des.MaxTime
)

// Machine description.
type (
	// TopologyConfig describes an XC40-style dragonfly machine.
	TopologyConfig = topology.Config
	// PlusTopologyConfig describes a two-layer Dragonfly+ machine
	// (extension beyond the paper).
	PlusTopologyConfig = topology.PlusConfig
	// Topology is a wired XC40-style dragonfly machine.
	Topology = topology.Topology
	// DragonflyPlus is a wired Dragonfly+ machine.
	DragonflyPlus = topology.DragonflyPlus
	// Interconnect is the machine-neutral topology interface every layer of
	// the simulator consumes; Topology and DragonflyPlus implement it.
	Interconnect = topology.Interconnect
	// Machine is a buildable machine description (a topology config);
	// TopologyConfig and PlusTopologyConfig implement it, and Config.Topology
	// accepts either.
	Machine = topology.Machine
	// NodeID identifies a compute node.
	NodeID = topology.NodeID
	// RouterID identifies a router.
	RouterID = topology.RouterID
	// NetworkParams carries channel bandwidths, latencies, and buffers.
	NetworkParams = network.Params
)

// Theta returns the paper's machine: 9 groups x (6x16 routers) x 4 nodes.
func Theta() TopologyConfig { return topology.Theta() }

// MiniTopology returns a small machine for tests and examples.
func MiniTopology() TopologyConfig { return topology.Mini() }

// PlusTopology returns a 1296-node Dragonfly+ machine (extension beyond the
// paper; see topology.Plus).
func PlusTopology() PlusTopologyConfig { return topology.Plus() }

// PlusMiniTopology returns a small Dragonfly+ machine for tests and
// quick-scale sweeps.
func PlusMiniTopology() PlusTopologyConfig { return topology.PlusMini() }

// NewTopology wires an XC40-style dragonfly machine.
func NewTopology(cfg TopologyConfig) (*Topology, error) { return topology.New(cfg) }

// NewPlusTopology wires a Dragonfly+ machine.
func NewPlusTopology(cfg PlusTopologyConfig) (*DragonflyPlus, error) { return topology.NewPlus(cfg) }

// TopologyPreset resolves a named machine: theta, mini, dfplus, or
// dfplus-mini — the values the dfsim/dfsweep -topo flag accepts.
func TopologyPreset(name string) (Machine, error) { return topology.Preset(name) }

// TopologyPresetNames lists the registered machine names.
func TopologyPresetNames() []string { return topology.PresetNames() }

// DefaultParams returns the Theta channel parameters of Sec. II.
func DefaultParams() NetworkParams { return network.DefaultParams() }

// Placement policies (Sec. III-B).
type PlacementPolicy = placement.Policy

// The five placement policies.
const (
	Contiguous    = placement.Contiguous
	RandomCabinet = placement.RandomCabinet
	RandomChassis = placement.RandomChassis
	RandomRouter  = placement.RandomRouter
	RandomNode    = placement.RandomNode
)

// AllPlacements lists the placement policies in the paper's order.
func AllPlacements() []PlacementPolicy { return placement.All() }

// ParsePlacement converts "cont"/"cab"/"chas"/"rotr"/"rand" (or long names).
func ParsePlacement(s string) (PlacementPolicy, error) { return placement.Parse(s) }

// Routing mechanisms: the paper's two (Sec. III-C) plus the
// congestion-learning extension.
type RoutingMechanism = routing.Mechanism

// The built-in routing policies.
const (
	Minimal   = routing.Minimal
	Adaptive  = routing.Adaptive
	QAdaptive = routing.QAdaptive
)

// RoutingPolicy is the decision SPI behind the named mechanisms; custom
// implementations install via RoutingOptions.Policy (a PolicyFactory).
type RoutingPolicy = routing.Policy

// RoutingOptions tunes secondary routing decisions (gateway policy,
// Valiant candidate count, misrouting bias, custom Policy); it is the
// Params.Route field of a network configuration.
type RoutingOptions = routing.Options

// RoutingPolicyNames lists the built-in policies in CLI spelling.
func RoutingPolicyNames() []string { return routing.PolicyNames() }

// ParseRouting converts "min"/"adp"/"qadaptive" (or long names).
func ParseRouting(s string) (RoutingMechanism, error) { return routing.ParseMechanism(s) }

// Task mapping (the paper's future-work extension): how ranks are assigned
// to the nodes of an allocation.
type MappingPolicy = mapping.Policy

// The task-mapping policies.
const (
	IdentityMapping = mapping.Identity
	ShuffleMapping  = mapping.Shuffle
	RouterPacked    = mapping.RouterPacked
	GroupPacked     = mapping.GroupPacked
)

// AllMappings lists the task-mapping policies.
func AllMappings() []MappingPolicy { return mapping.All() }

// ParseMapping converts "identity"/"shuffle"/"router-packed"/"group-packed".
func ParseMapping(s string) (MappingPolicy, error) { return mapping.Parse(s) }

// Application traces (Sec. III-A).
type (
	// Trace is an application communication trace.
	Trace = trace.Trace
	// CRConfig parameterizes the crystal router generator.
	CRConfig = trace.CRConfig
	// FBConfig parameterizes the fill boundary generator.
	FBConfig = trace.FBConfig
	// AMGConfig parameterizes the algebraic multigrid generator.
	AMGConfig = trace.AMGConfig
)

// Default application configurations at the paper's sizes.
func DefaultCR() CRConfig   { return trace.DefaultCR() }
func DefaultFB() FBConfig   { return trace.DefaultFB() }
func DefaultAMG() AMGConfig { return trace.DefaultAMG() }

// Trace generators.
func CRTrace(cfg CRConfig) (*Trace, error)   { return trace.CR(cfg) }
func FBTrace(cfg FBConfig) (*Trace, error)   { return trace.FB(cfg) }
func AMGTrace(cfg AMGConfig) (*Trace, error) { return trace.AMG(cfg) }

// Dependency-graph workload IR (extension beyond the paper, GOAL-like): the
// canonical representation the replay executor runs. Flat traces lower into
// it via Trace.Graph; the collective/storage generators emit it directly.
type (
	// Graph is a per-rank dependency DAG of compute/send/recv nodes.
	Graph = trace.Graph
	// GraphNode is one node of a workload graph.
	GraphNode = trace.GraphNode
	// RingAllReduceConfig parameterizes the ring all-reduce generator.
	RingAllReduceConfig = trace.RingAllReduceConfig
	// TreeAllReduceConfig parameterizes the binomial-tree all-reduce generator.
	TreeAllReduceConfig = trace.TreeAllReduceConfig
	// MoEAllToAllConfig parameterizes the windowed all-to-all generator.
	MoEAllToAllConfig = trace.MoEAllToAllConfig
	// HaloConfig parameterizes the 2D/3D halo-exchange generator.
	HaloConfig = trace.HaloConfig
	// CheckpointConfig parameterizes the bursty checkpoint/storage generator.
	CheckpointConfig = trace.CheckpointConfig
)

// Graph workload generators.
func RingAllReduceGraph(cfg RingAllReduceConfig) (*Graph, error) { return trace.RingAllReduce(cfg) }
func TreeAllReduceGraph(cfg TreeAllReduceConfig) (*Graph, error) { return trace.TreeAllReduce(cfg) }
func MoEAllToAllGraph(cfg MoEAllToAllConfig) (*Graph, error)     { return trace.MoEAllToAll(cfg) }
func HaloGraph(cfg HaloConfig) (*Graph, error)                   { return trace.Halo(cfg) }
func CheckpointGraph(cfg CheckpointConfig) (*Graph, error)       { return trace.Checkpoint(cfg) }

// DefaultGraphApp builds a graph application at its default size by registry
// name ("RING", "TREE", "MOE", "HALO2D", "HALO3D", "CKPT").
func DefaultGraphApp(name string) (*Graph, error) { return trace.DefaultGraph(name) }

// AppNames lists every built-in application — flat miniapps then graph
// generators — the single registry behind every CLI's -app grammar.
func AppNames() []string { return trace.Apps() }

// GraphAppNames lists the graph-generator applications.
func GraphAppNames() []string { return trace.GraphApps() }

// IsGraphApp reports whether name names a graph generator.
func IsGraphApp(name string) bool { return trace.IsGraphApp(name) }

// ParseApp canonicalizes an application name case-insensitively against the
// registry.
func ParseApp(s string) (string, error) { return trace.ParseApp(s) }

// Background traffic (Sec. IV-C).
type (
	// BackgroundConfig parameterizes a synthetic interference job.
	BackgroundConfig = workload.BackgroundConfig
	// BackgroundKind selects uniform-random or bursty interference.
	BackgroundKind = workload.BackgroundKind
)

// The two background patterns.
const (
	UniformRandom = workload.UniformRandom
	Bursty        = workload.Bursty
)

// Fault injection (extension beyond the paper): degrade the fabric before
// or during a run (Config.Faults, ExperimentOptions.Faults, the -faults
// flag of dfsim/dfsweep/dfvalidate) and measure the trade-off on the
// broken machine. Fault-aware routing steers around failed equipment or
// fails with ErrUnreachable; drops are byte-accounted and audited.
type (
	// FaultSpec declares which equipment fails: explicit IDs, seeded
	// fractions of each link class, a router count, and optional timed
	// fail/repair events. The zero value (or nil) degrades nothing.
	FaultSpec = faults.Spec
	// FaultEvent is one scheduled failure or repair.
	FaultEvent = faults.Event
)

// ParseFaultSpec parses the -faults CLI grammar, e.g.
// "global=0.25,local=0.1,routers=2,seed=7" or
// "fail=link:3-40@200us,repair=link:3-40@1.5ms".
func ParseFaultSpec(text string) (*FaultSpec, error) { return faults.ParseSpec(text) }

// ErrUnreachable reports that a source/destination pair has no live route
// on the degraded fabric; routing failures wrap it (use errors.Is).
var ErrUnreachable = routing.ErrUnreachable

// UnreachableError carries the unreachable router pair (use errors.As).
type UnreachableError = routing.UnreachableError

// WatchdogError reports a tripped DES stall watchdog (Config.WatchdogEvents
// / WatchdogTime, the -watchdog-events flag) with a fabric diagnostic.
type WatchdogError = des.WatchdogError

// Study orchestration.
type (
	// Config describes one simulation run.
	Config = core.Config
	// Result carries a run's measurements.
	Result = core.Result
	// Cell is one placement x routing combination (Table I).
	Cell = core.Cell
)

// Invariant auditing (Config.Audit, the -audit flag of dfsim and dfsweep):
// machine-checked credit conservation, byte/packet conservation, VC-class
// monotonicity (deadlock-freedom witness), time monotonicity, and per-NIC
// FIFO injection.
type (
	// AuditSummary carries an audited run's check counts and any recorded
	// violations.
	AuditSummary = audit.Summary
	// AuditStats counts the invariant checks an audited run performed.
	AuditStats = audit.Stats
)

// Run executes one simulation.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// RunBatch executes independent simulations across a bounded worker pool
// (parallel <= 0 selects NumCPU) and returns results in config order,
// bit-identical to sequential Run calls at every worker count.
func RunBatch(cfgs []Config, parallel int) ([]*Result, error) { return core.RunBatch(cfgs, parallel) }

// Multijob co-runs (the production scenario of Sec. IV-C, with real
// application traces instead of synthetic background traffic): list the
// further jobs in Config.CoRun; they are placed in order from the shared free
// pool, replayed concurrently on one fabric, and measured in Result.CoRun.
type (
	// JobSpec is one further application of a co-run.
	JobSpec = core.JobSpec
	// JobResult is one co-run job's share of a Result.
	JobResult = core.JobResult
)

// Batch scheduling (extension: the paper's "joint actions among
// applications and system" future work).
type (
	// SchedConfig describes the machine and scheduling discipline.
	SchedConfig = sched.Config
	// JobRequest is one job submission to the scheduler.
	JobRequest = sched.JobRequest
	// JobRecord is the scheduler's account of one completed job.
	JobRecord = sched.JobRecord
	// SchedResult is the outcome of a scheduling run.
	SchedResult = sched.Result
)

// Schedule runs a batch-scheduling trace: jobs arrive over simulated time,
// queue FCFS (optionally with backfill), run on the shared fabric, and
// release their nodes on completion.
func Schedule(cfg SchedConfig, jobs []JobRequest) (*SchedResult, error) {
	return sched.Run(cfg, jobs)
}

// ThetaConfig builds a run on the paper's machine.
func ThetaConfig(tr *Trace, cell Cell, seed int64) Config { return core.ThetaConfig(tr, cell, seed) }

// MiniConfig builds a run on the small test machine.
func MiniConfig(tr *Trace, cell Cell, seed int64) Config { return core.MiniConfig(tr, cell, seed) }

// AllCells lists the ten placement x routing configurations of Table I.
func AllCells() []Cell { return core.AllCells() }

// ExtremeCells lists the four sensitivity-study configurations.
func ExtremeCells() []Cell { return core.ExtremeCells() }

// Experiment harness.
type (
	// ExperimentOptions configures the experiment runner.
	ExperimentOptions = experiments.Options
	// ExperimentRunner regenerates the paper's tables and figures.
	ExperimentRunner = experiments.Runner
	// Report is an experiment's output.
	Report = experiments.Report
	// ExperimentScale selects quick or paper-scale runs.
	ExperimentScale = experiments.Scale
)

// Experiment scales.
const (
	ScaleQuick = experiments.ScaleQuick
	ScalePaper = experiments.ScalePaper
)

// NewRunner builds an experiment runner.
func NewRunner(opts ExperimentOptions) *ExperimentRunner { return experiments.NewRunner(opts) }

// Sweep farm: a content-addressed, integrity-checked on-disk store of
// simulation results (see cmd/dffarm). Every run configuration has one
// canonical encoding whose SHA-256 is its address; banked cells replay
// byte-identically instead of re-simulating, corrupt or missing entries
// degrade to a re-run, and sweeps shard across processes via FarmOptions.
type (
	// FarmStore is the on-disk content-addressed result store.
	FarmStore = farm.Store
	// Farm executes config sets against a FarmStore.
	Farm = farm.Farm
	// FarmOptions configures parallelism, sharding, and progress callbacks.
	FarmOptions = farm.Options
	// FarmStats is the hit/miss/corrupt accounting of a farm run.
	FarmStats = farm.Stats
	// FarmProgress describes one finished sweep cell.
	FarmProgress = farm.Progress
	// FarmManifest is the advisory bookkeeping record of one sweep job.
	FarmManifest = farm.Manifest
)

// Execution resilience: per-cell scrubbing, quarantine bookkeeping, and
// deterministic chaos injection (see cmd/dffarm's -scrub, -retries,
// -quarantine-limit, and -chaos flags).
type (
	// FarmScrubReport summarizes a store integrity scrub
	// (FarmStore.Scrub): corrupt entries are quarantined, in-flight
	// writes skipped, and the next sweep re-runs what was removed.
	FarmScrubReport = farm.ScrubReport
	// FarmQuarantineRecord is the diagnostic record of one poisoned job:
	// the cell's name, attempts consumed, and one line per failure.
	FarmQuarantineRecord = farm.QuarantineRecord
	// ChaosSpec declares a deterministic fault-injection plan for
	// resilience testing: per-site probabilities, a seed, and a per-key
	// fault cap that keeps retry budgets convergent.
	ChaosSpec = chaos.Spec
	// ChaosInjector makes the seeded injection decisions; nil disables
	// injection at zero cost (FarmOptions.Chaos).
	ChaosInjector = chaos.Injector
)

// ParseChaosSpec parses the -chaos CLI grammar, e.g.
// "worker.kill=0.2,store.read=0.1,max=1,seed=7".
func ParseChaosSpec(text string) (*ChaosSpec, error) { return chaos.ParseSpec(text) }

// NewChaosInjector builds an injector from a spec; a nil or empty spec
// yields a nil injector (injection disabled).
func NewChaosInjector(spec *ChaosSpec) *ChaosInjector { return chaos.New(spec) }

// OpenFarm opens (creating if needed) a farm store rooted at dir.
func OpenFarm(dir string) (*FarmStore, error) { return farm.Open(dir) }

// NewFarm builds a Farm over a store.
func NewFarm(store *FarmStore, opts FarmOptions) *Farm { return farm.New(store, opts) }

// EncodeConfig returns the canonical encoding of a run configuration — the
// identity the farm hashes into a content address. Configs without a
// canonical identity (nil trace or machine, a pre-resolved fault state)
// return an error.
func EncodeConfig(cfg Config) (string, error) { return farm.Encode(cfg) }

// ConfigAddress returns the content address (SHA-256 of the canonical
// encoding) of a run configuration.
func ConfigAddress(cfg Config) (string, error) { return farm.Address(cfg) }

// FarmJobID derives the stable job identifier of an ordered address list.
func FarmJobID(addrs []string) string { return farm.JobID(addrs) }

// WriteFarmCorpus emits the flat training-corpus CSV for a completed sweep:
// one row per config with a result, features then measured targets.
func WriteFarmCorpus(w io.Writer, cfgs []Config, results []*Result) (rows, skipped int, err error) {
	return farm.WriteCorpus(w, cfgs, results)
}

// ExperimentIDs lists every reproducible artifact: table1, table2,
// fig2 … fig10.
func ExperimentIDs() []string { return experiments.IDs() }

// ExtensionExperimentIDs lists the experiments beyond the paper's figures:
// xmap (task mapping, the paper's future work), xmulti (real-trace co-run
// interference), and figr (resilience sweep on a degraded fabric).
func ExtensionExperimentIDs() []string { return experiments.ExtensionIDs() }
