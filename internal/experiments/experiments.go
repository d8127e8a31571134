// Package experiments regenerates every table and figure in the paper's
// evaluation (§4) and case study (§5), plus ablations of the design
// choices behind them. Each returns a result whose String method prints
// the rows or series the paper reports.
//
// The agent-timed figures (9, 10 and 11, the speed bound, the Agilla
// side of the Maté comparison and the ablations) share one harness: a
// warmed-up 5×5 testbed (newTestbed) whose trace hooks each figure
// installs once, one trial that starts an agent and runs until the
// figure's predicate holds (runAgent), and one reset between trials.
// Figure 12, the message sizes and the memory budget are read from the
// models the engine runs on, so they build no deployment. The case study
// runs through the public Scenario API, and the kernel sweeps (scale,
// churn) share one worker sweep (sweepWorkers).
//
// Experiment index (the E-numbers agilla-bench's usage text cites):
//
//	Fig9and10   E1/E2  reliability and latency of smove vs rout, 1-5 hops
//	Fig11       E3     one-hop latency of every remote operation
//	Fig12       E4     local instruction latency classes (the cost table)
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
// radio and the given per-node config tweaks, warmed up.
func newTestbed(seed int64, node core.Config, params *radio.Params) (*core.Deployment, error) {
	d, err := core.NewDeployment(core.DeploymentSpec{
		Layout: topology.GridLayout(5, 5), Seed: seed,
		Node:  node,
		Field: sensor.Constant(25),
		Radio: params,
	})
	if err != nil {
		return nil, err
	}
	return d, d.WarmUp()
}

// runAgent is one trial: n injects code toward dest (creating it in
// place when dest is n itself), and the deployment runs until done holds
// or limit of virtual time has passed.
func runAgent(d *core.Deployment, n *core.Node, dest topology.Location, code []byte, done func() bool, limit time.Duration) (bool, error) {
	if _, err := n.InjectAgent(code, dest); err != nil {
		return false, err
	}
	return d.Sim.RunUntil(done, d.Sim.Now()+limit)
}

// reset ends a trial: it kills every live agent, removes the plain-value
// and visited-marker tuples benchmark agents leave (the node context
// tuples stay), and runs dt more to drain in-flight traffic.
func reset(d *core.Deployment, dt time.Duration) error {
	for _, n := range d.Nodes() {
		for _, id := range n.AgentIDs() {
			n.KillAgent(id)
		}
		n.Space().RemoveAll(tuplespace.Tmpl(tuplespace.TypeV(tuplespace.TypeValue)))
		n.Space().RemoveAll(tuplespace.Tmpl(tuplespace.Str("vst")))
	}
	return d.Sim.Run(d.Sim.Now() + dt)
}

// hopTarget returns the node h hops from the base station: (h,1), since
// the base at (0,0) bridges to the gateway (1,1).
func hopTarget(h int) topology.Location { return topology.Loc(int16(h), 1) }
