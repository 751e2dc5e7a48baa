package core

import (
	"dragonfly/internal/des"
	"dragonfly/internal/mapping"
	"dragonfly/internal/placement"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
)

// JobSpec is one further application of a co-run (Config.CoRun): the
// production scenario the paper's interference study models with synthetic
// traffic, and the one its prior "bully" study [15] measured with real trace
// pairs. Jobs are placed in order from the machine's free pool, so earlier
// jobs fragment the allocation of later ones exactly as a batch scheduler
// would.
type JobSpec struct {
	Name      string
	Trace     *trace.Trace
	Placement placement.Policy
	// Mapping assigns the job's ranks to its allocated nodes (zero value:
	// identity, the paper's setup).
	Mapping  mapping.Policy
	MsgScale float64
	Start    des.Time
}

// JobResult carries one co-run job's measurements (Result.CoRun).
type JobResult struct {
	Name      string
	Placement placement.Policy
	Completed bool
	CommTimes []des.Time
	AvgHops   []float64
	Nodes     []topology.NodeID
	Routers   map[topology.RouterID]bool
}

// MaxCommTime returns the job's slowest rank time.
func (j *JobResult) MaxCommTime() des.Time { return maxTime(j.CommTimes) }
