// Package experiments regenerates every table and figure in the paper's
// evaluation (§4) and case study (§5), plus ablations of the design
// choices behind them. Each experiment builds its own deployment, runs
// a scripted workload, and returns a result whose String method prints
// the same rows/series the paper reports.
//
// Experiment index (the E-numbers agilla-bench's usage text cites):
//
//	Fig9and10   E1/E2  reliability and latency of smove vs rout, 1-5 hops
//	Fig11       E3     one-hop latency of every remote operation
//	Fig12       E4     local instruction latency classes
//	Fig5Sizes   E5     migration message formats and sizes
//	Memory      E6     the 3.59KB SRAM budget decomposition
//	Speed       E7     maximum migration rate and tracking speed
//	CaseStudy   E8     the fire detection/tracking scenario
//	MateCompare E9     reprogramming cost: Agilla injection vs Maté flood
//	Ablations          hop-by-hop vs end-to-end, burst vs Bernoulli loss,
//	                   retransmission-count sweep
package experiments

import (
	"time"

	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sensor"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// Config parameterizes the harness-wide knobs.
type Config struct {
	// Trials per data point (the paper uses 100).
	Trials int
	// Seed for reproducibility.
	Seed int64
	// Quick reduces trial counts for smoke tests.
	Quick bool
	// Workers is the maximum kernel parallelism the scale experiment
	// sweeps up to (default 4; 1 keeps everything sequential).
	Workers int
	// Replication adds gossip-replicated rows to the churn sweep, beside
	// the baseline rows, so the output quantifies what the replication
	// layer buys under the identical schedule and seed.
	Replication bool
}

func (c Config) withDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 100
	}
	if c.Quick && c.Trials > 20 {
		c.Trials = 20
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	return c
}

// newTestbed builds the paper's 5×5 testbed with the calibrated lossy
// radio and the given per-node config tweaks.
func newTestbed(seed int64, node core.Config, params *radio.Params) (*core.Deployment, error) {
	return core.NewDeployment(core.DeploymentSpec{
		Layout: topology.GridLayout(5, 5), Seed: seed,
		Node:  node,
		Field: sensor.Constant(25),
		Radio: params,
	})
}

// purgeAgents kills every live agent in the deployment (between trials).
func purgeAgents(d *core.Deployment) {
	for _, n := range d.Nodes() {
		for _, id := range n.AgentIDs() {
			n.KillAgent(id)
		}
	}
}

// purgeValueTuples removes plain-integer and visited-marker tuples left by
// benchmark agents, keeping the node context tuples intact.
func purgeValueTuples(d *core.Deployment) {
	for _, n := range d.Nodes() {
		n.Space().RemoveAll(tuplespace.Tmpl(tuplespace.TypeV(tuplespace.TypeValue)))
		n.Space().RemoveAll(tuplespace.Tmpl(tuplespace.Str("vst")))
	}
}

// settle advances the deployment clock by dt to drain in-flight traffic.
func settle(d *core.Deployment, dt time.Duration) error {
	return d.Sim.Run(d.Sim.Now() + dt)
}

// hopTarget returns the node h hops from the base station: (h,1), since
// the base at (0,0) bridges to the gateway (1,1).
func hopTarget(h int) topology.Location { return topology.Loc(int16(h), 1) }
