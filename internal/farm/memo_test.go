// The weak package arrived in Go 1.24; the module itself still builds with
// Go 1.22, which skips this file.

//go:build go1.24

package farm

import (
	"runtime"
	"testing"
	"weak"

	"dragonfly/internal/core"
	"dragonfly/internal/trace"
)

// TestAddressedWorkloadsStayCollectable: lowering a trace to its graph and
// taking the farm address of a trace or graph workload memoizes the results
// on the workload itself, so once the caller drops the workload, the
// workload and its lowered graph must be collectable — no process-global
// memo may keep them alive.
func TestAddressedWorkloadsStayCollectable(t *testing.T) {
	tr, lowered, ring := addressWorkloads(t)
	for i := 0; i < 10 && (tr.Value() != nil || lowered.Value() != nil || ring.Value() != nil); i++ {
		runtime.GC()
	}
	if tr.Value() != nil {
		t.Error("addressed trace still reachable after GC")
	}
	if lowered.Value() != nil {
		t.Error("lowered graph still reachable after GC")
	}
	if ring.Value() != nil {
		t.Error("addressed graph workload still reachable after GC")
	}
}

// addressWorkloads builds a trace and a graph workload, lowers the trace and
// addresses both, and returns only weak pointers to them.
func addressWorkloads(t *testing.T) (weak.Pointer[trace.Trace], weak.Pointer[trace.Graph], weak.Pointer[trace.Graph]) {
	t.Helper()
	cfg := baseConfig(t)
	g := cfg.Trace.Graph()
	if _, err := Address(cfg); err != nil {
		t.Fatal(err)
	}
	ring, err := trace.RingAllReduce(trace.RingAllReduceConfig{Ranks: 8, Bytes: 64 * trace.KB, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	gcfg := core.Config{Topology: cfg.Topology, Params: cfg.Params, Graph: ring, Seed: 1}
	if _, err := Address(gcfg); err != nil {
		t.Fatal(err)
	}
	return weak.Make(cfg.Trace), weak.Make(g), weak.Make(ring)
}
