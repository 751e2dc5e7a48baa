package farm

import (
	"reflect"
	"strings"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/mapping"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
	"dragonfly/internal/workload"
)

func testTrace(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := trace.CR(trace.CRConfig{Ranks: 16, MessageBytes: 4 * trace.KB})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func baseConfig(t testing.TB) core.Config {
	return core.Config{
		Topology:  topology.Mini(),
		Params:    network.DefaultParams(),
		Placement: placement.Contiguous,
		Routing:   routing.Minimal,
		Trace:     testTrace(t),
		Seed:      1,
	}
}

// TestEncodeCoversEveryStructField reflects over the four structs whose
// fields feed a simulation and fails when any of them grows a field the
// encoder's coverage registry does not list. Adding a field to core.Config
// (or Params, routing.Options, BackgroundConfig) without teaching Encode
// about it would otherwise alias distinct configs to one content address —
// a silent wrong-result cache hit.
func TestEncodeCoversEveryStructField(t *testing.T) {
	check := func(name string, typ reflect.Type, covered map[string]bool) {
		seen := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i).Name
			seen[f] = true
			if !covered[f] {
				t.Errorf("%s.%s is not in the encoder's coverage registry: teach Encode about it (or it will alias configs)", name, f)
			}
		}
		for f := range covered {
			if !seen[f] {
				t.Errorf("encoder registry lists %s.%s, which no longer exists", name, f)
			}
		}
	}
	check("core.Config", reflect.TypeOf(core.Config{}), coveredConfigFields)
	check("network.Params", reflect.TypeOf(network.Params{}), coveredParamsFields)
	check("routing.Options", reflect.TypeOf(routing.Options{}), coveredRouteFields)
	check("workload.BackgroundConfig", reflect.TypeOf(workload.BackgroundConfig{}), coveredBackgroundFields)

	// CoRun is covered by rejection, not encoding: a co-run config must fail
	// to encode rather than alias the single-job cell.
	for _, f := range rejectedConfigFields(t) {
		if !coveredConfigFields[f.field] {
			t.Errorf("rejected field core.Config.%s is not in the coverage registry", f.field)
		}
		cfg := baseConfig(t)
		f.apply(&cfg)
		if enc, err := Encode(cfg); err == nil {
			t.Errorf("%s encoded instead of being rejected:\n%s", f.name, enc)
		}
	}
}

// configMutation changes one top-level core.Config field.
type configMutation struct {
	field string // top-level core.Config field exercised
	name  string
	apply func(cfg *core.Config)
}

// rejectedConfigFields lists the mutations that make a config uncacheable:
// Encode must fail on each instead of giving it an address. A co-run's
// further jobs have no place in a Record, which holds one job's
// measurements.
func rejectedConfigFields(t *testing.T) []configMutation {
	tr, err := trace.CR(trace.CRConfig{Ranks: 8, MessageBytes: 4 * trace.KB})
	if err != nil {
		t.Fatal(err)
	}
	return []configMutation{
		{"CoRun", "co-run job", func(c *core.Config) {
			c.CoRun = []core.JobSpec{{Name: "bully", Trace: tr, Placement: placement.RandomNode}}
		}},
	}
}

// TestEveryFieldPerturbsAddress mutates each run-config field in turn and
// requires every mutation to move the content address, with no collisions
// among the mutants. The cross-check at the end requires at least one
// mutation per top-level core.Config field, so a newly added field fails
// this test until it both gets a mutation here and is encoded (or, for an
// uncacheable field, until Encode rejects it: rejectedConfigFields).
func TestEveryFieldPerturbsAddress(t *testing.T) {
	mustRing := func(t *testing.T, ranks int, bytes int64, rounds int) *trace.Graph {
		t.Helper()
		g, err := trace.RingAllReduce(trace.RingAllReduceConfig{Ranks: ranks, Bytes: bytes, Rounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	otherTrace := func() *trace.Trace {
		tr, err := trace.CR(trace.CRConfig{Ranks: 16, MessageBytes: 8 * trace.KB})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	muts := []configMutation{
		{"Topology", "machine shape", func(c *core.Config) {
			m := topology.Mini()
			m.GlobalPortsPerRouter++ // a field Label() omits: only CanonicalSpec sees it
			c.Topology = m
		}},
		{"Placement", "placement", func(c *core.Config) { c.Placement = placement.RandomNode }},
		{"Routing", "routing", func(c *core.Config) { c.Routing = routing.Adaptive }},
		{"Mapping", "mapping", func(c *core.Config) { c.Mapping = mapping.Shuffle }},
		{"Trace", "trace content", func(c *core.Config) { c.Trace = otherTrace() }},
		{"Graph", "graph workload", func(c *core.Config) { c.Graph = mustRing(t, 8, 64*trace.KB, 1) }},
		{"Graph", "graph ranks", func(c *core.Config) { c.Graph = mustRing(t, 12, 64*trace.KB, 1) }},
		{"Graph", "graph payload", func(c *core.Config) { c.Graph = mustRing(t, 8, 128*trace.KB, 1) }},
		{"Graph", "graph rounds", func(c *core.Config) { c.Graph = mustRing(t, 8, 64*trace.KB, 2) }},
		{"Graph", "graph app", func(c *core.Config) {
			g, err := trace.TreeAllReduce(trace.TreeAllReduceConfig{Ranks: 8, Bytes: 64 * trace.KB, Rounds: 1})
			if err != nil {
				t.Fatal(err)
			}
			c.Graph = g
		}},
		{"Graph", "graph structure", func(c *core.Config) {
			// Same app label, ranks, and traffic as "graph workload", different
			// dependency edges: only the content digest separates them.
			g := mustRing(t, 8, 64*trace.KB, 1)
			h := &trace.Graph{App: g.App, Ranks: make([][]trace.GraphNode, len(g.Ranks))}
			for r, nodes := range g.Ranks {
				h.Ranks[r] = append([]trace.GraphNode(nil), nodes...)
				for i := range h.Ranks[r] {
					h.Ranks[r][i].Deps = nil // drop every dependency edge
				}
			}
			c.Graph = h
		}},
		{"MsgScale", "msg scale", func(c *core.Config) { c.MsgScale = 2 }},
		{"Seed", "seed", func(c *core.Config) { c.Seed = 2 }},
		{"Audit", "audit", func(c *core.Config) { c.Audit = true }},
		{"MaxSimTime", "max sim time", func(c *core.Config) { c.MaxSimTime = des.Second }},
		{"WatchdogEvents", "watchdog events", func(c *core.Config) { c.WatchdogEvents = 5 }},
		{"WatchdogTime", "watchdog time", func(c *core.Config) { c.WatchdogTime = des.Second }},

		{"Background", "background on", func(c *core.Config) {
			c.Background = &workload.BackgroundConfig{Kind: workload.UniformRandom, MsgBytes: 1024, Interval: des.Microsecond}
		}},
		{"Background", "background kind", func(c *core.Config) {
			c.Background = &workload.BackgroundConfig{Kind: workload.Bursty, MsgBytes: 1024, Interval: des.Microsecond}
		}},
		{"Background", "background bytes", func(c *core.Config) {
			c.Background = &workload.BackgroundConfig{Kind: workload.UniformRandom, MsgBytes: 2048, Interval: des.Microsecond}
		}},
		{"Background", "background interval", func(c *core.Config) {
			c.Background = &workload.BackgroundConfig{Kind: workload.UniformRandom, MsgBytes: 1024, Interval: 2 * des.Microsecond}
		}},
		{"Background", "background fanout", func(c *core.Config) {
			c.Background = &workload.BackgroundConfig{Kind: workload.Bursty, MsgBytes: 1024, Interval: des.Microsecond, FanOut: 3}
		}},

		{"Faults", "faults global frac", func(c *core.Config) { c.Faults = &faults.Spec{GlobalFrac: 0.1} }},
		{"Faults", "faults local frac", func(c *core.Config) { c.Faults = &faults.Spec{LocalFrac: 0.1} }},
		{"Faults", "faults routers", func(c *core.Config) { c.Faults = &faults.Spec{Routers: 1} }},
		{"Faults", "faults explicit router", func(c *core.Config) { c.Faults = &faults.Spec{FailRouters: []topology.RouterID{3}} }},
		{"Faults", "faults explicit link", func(c *core.Config) { c.Faults = &faults.Spec{FailLinks: [][2]topology.RouterID{{1, 2}}} }},
		{"Faults", "faults seed", func(c *core.Config) { c.Faults = &faults.Spec{GlobalFrac: 0.1, Seed: 9} }},
		{"Faults", "faults event", func(c *core.Config) {
			c.Faults = &faults.Spec{Events: []faults.Event{{At: des.Microsecond, A: 1, B: 2}}}
		}},
		{"Faults", "faults group", func(c *core.Config) { c.Faults = &faults.Spec{FailGroups: []int{1}} }},
		{"Faults", "faults bundle", func(c *core.Config) { c.Faults = &faults.Spec{FailBundles: [][2]int{{0, 1}}} }},
		{"Faults", "faults flap", func(c *core.Config) {
			c.Faults = &faults.Spec{Flaps: []faults.Flap{{A: 1, B: 2, MTBF: 100_000, MTTR: 50_000}}}
		}},
		{"Faults", "faults flap horizon", func(c *core.Config) {
			c.Faults = &faults.Spec{
				Flaps:     []faults.Flap{{A: 1, B: 2, MTBF: 100_000, MTTR: 50_000}},
				FlapUntil: 2_000_000,
			}
		}},

		{"Params", "packet bytes", func(c *core.Config) { c.Params.PacketBytes /= 2 }},
		{"Params", "terminal bandwidth", func(c *core.Config) { c.Params.TerminalBandwidth *= 2 }},
		{"Params", "local bandwidth", func(c *core.Config) { c.Params.LocalBandwidth *= 2 }},
		{"Params", "global bandwidth", func(c *core.Config) { c.Params.GlobalBandwidth *= 2 }},
		{"Params", "terminal latency", func(c *core.Config) { c.Params.TerminalLatency *= 2 }},
		{"Params", "local latency", func(c *core.Config) { c.Params.LocalLatency *= 2 }},
		{"Params", "global latency", func(c *core.Config) { c.Params.GlobalLatency *= 2 }},
		{"Params", "terminal vc buffer", func(c *core.Config) { c.Params.TerminalVCBuffer *= 2 }},
		{"Params", "local vc buffer", func(c *core.Config) { c.Params.LocalVCBuffer *= 2 }},
		{"Params", "global vc buffer", func(c *core.Config) { c.Params.GlobalVCBuffer *= 2 }},
		{"Params", "gateway policy", func(c *core.Config) { c.Params.Route.Gateway = routing.GatewayRandom }},
		{"Params", "valiant candidates", func(c *core.Config) { c.Params.Route.ValiantCandidates = 4 }},
		{"Params", "minimal bias", func(c *core.Config) { c.Params.Route.MinimalBias = 1024 }},
		{"Params", "custom policy", func(c *core.Config) {
			c.Params.Route.Policy = func() routing.Policy { return routing.NewQAdaptivePolicy(routing.QAdaptiveConfig{}) }
		}},
	}

	base := baseConfig(t)
	baseAddr, err := Address(base)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{baseAddr: "base"}
	fieldsHit := map[string]bool{}
	for _, m := range muts {
		cfg := baseConfig(t)
		m.apply(&cfg)
		addr, err := Address(cfg)
		if err != nil {
			t.Errorf("%s: %v", m.name, err)
			continue
		}
		if addr == baseAddr {
			t.Errorf("%s does not perturb the content address", m.name)
		}
		if prev, dup := seen[addr]; dup {
			t.Errorf("%s collides with %s on address %s", m.name, prev, addr[:12])
		}
		seen[addr] = m.name
		fieldsHit[m.field] = true
	}
	// Rejected fields count as exercised only when the rejection holds.
	for _, m := range rejectedConfigFields(t) {
		cfg := baseConfig(t)
		m.apply(&cfg)
		if addr, err := Address(cfg); err == nil {
			t.Errorf("%s got address %s; it must be rejected as uncacheable", m.name, addr[:12])
			continue
		}
		fieldsHit[m.field] = true
	}

	typ := reflect.TypeOf(core.Config{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i).Name; !fieldsHit[f] {
			t.Errorf("no perturbation exercises core.Config.%s — add one (and encode the field)", f)
		}
	}
}

// TestEncodeStability pins address determinism: the same config encodes to
// the same address across calls and across separately generated (identical)
// traces, and the encoding names its version.
func TestEncodeStability(t *testing.T) {
	a, err := Address(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Address(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical configs address differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("address %q is not 64 hex chars", a)
	}
	enc, err := Encode(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(enc, "dffarm-config v2\n") {
		t.Fatalf("encoding does not lead with its version line:\n%s", enc)
	}

	// The replay layer treats MsgScale <= 0 as 1, so those configs are one
	// simulation and must share one address (dffarm passes 1 explicitly;
	// several experiments leave the zero value).
	zero, one := baseConfig(t), baseConfig(t)
	zero.MsgScale, one.MsgScale = 0, 1
	za, err := Address(zero)
	if err != nil {
		t.Fatal(err)
	}
	oa, err := Address(one)
	if err != nil {
		t.Fatal(err)
	}
	if za != oa {
		t.Fatal("MsgScale 0 and 1 are the same simulation but address differently")
	}
}

// TestEncodeGraphWorkloads pins the flat/graph encoding split: a flat
// config's text carries trace.* lines and never graph.* (so every address
// banked before the graph IR stays reachable); a graph config swaps exactly
// those three lines, keys on graph content, and ignores any residual Trace.
func TestEncodeGraphWorkloads(t *testing.T) {
	flat, err := Encode(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(flat, "trace.app=") || strings.Contains(flat, "graph.") {
		t.Fatalf("flat encoding malformed:\n%s", flat)
	}

	g, err := trace.RingAllReduce(trace.RingAllReduceConfig{Ranks: 8, Bytes: 64 * trace.KB, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	gcfg := baseConfig(t)
	gcfg.Graph = g
	genc, err := Encode(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"graph.app=RING\n", "graph.ranks=8\n", "graph.digest="} {
		if !strings.Contains(genc, want) {
			t.Errorf("graph encoding missing %q:\n%s", want, genc)
		}
	}
	if strings.Contains(genc, "trace.") {
		t.Fatalf("graph encoding leaks trace lines:\n%s", genc)
	}
	// Graph identity is content, not the Trace riding along: changing the
	// (ignored) trace must not move the address; changing graph content must.
	other := gcfg
	other.Trace = nil
	oa, err := Address(other)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := Address(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ga != oa {
		t.Fatal("residual Trace moved a graph config's address")
	}
	// A graph-only config is cacheable; a workload-free one is not.
	if _, err := Encode(core.Config{Topology: gcfg.Topology, Params: gcfg.Params}); err == nil {
		t.Fatal("Encode accepted a config with no workload")
	}
}

// TestEncodeRejectsUncacheable: configs whose identity the encoder cannot
// capture must fail loudly, not hash lossily.
func TestEncodeRejectsUncacheable(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Trace = nil
	if _, err := Encode(cfg); err == nil {
		t.Error("nil trace encoded")
	}
	cfg = baseConfig(t)
	cfg.Topology = nil
	if _, err := Encode(cfg); err == nil {
		t.Error("nil machine encoded")
	}
	cfg = baseConfig(t)
	fs, err := faults.Resolve(&faults.Spec{Routers: 1, Seed: 1}, topology.BuildMachine(topology.Mini()))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Params.Route.Health = fs
	if _, err := Encode(cfg); err == nil {
		t.Error("pre-installed Route.Health encoded; its live state has no canonical identity")
	}
}
