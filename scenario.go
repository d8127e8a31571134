package agilla

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// AgentSpec is one agent a Scenario injects at start: a program and its
// destination.
type AgentSpec struct {
	// Name labels the agent in metrics and errors.
	Name string
	// Program is a verified program from the program package (builder,
	// Parse, FromBytes, or Library).
	Program *Program
	// At is the injection destination. The zero location injects at the
	// base station itself.
	At Location
}

// Scenario is a declarative experiment: a deployment, an environment, a
// set of agent programs, and a stopping condition. One deployed network
// serving many applications is the paper's whole pitch (§2.2); a Scenario
// makes each such workload a value that can be run, swept over seeds, and
// compared — instead of a hand-rolled main function per experiment.
//
// A Scenario is immutable during Run and may be shared: RunMany runs the
// same Scenario concurrently from many goroutines.
type Scenario struct {
	// Name labels the scenario in output.
	Name string
	// Options configure every run's deployment exactly as they configure
	// New (WithTopology, WithReliableRadio, WithEnergy, ...). Each run
	// appends WithSeed with its own seed, which overrides any WithSeed
	// here. Two notes:
	//   - WithWorkers multiplies with RunMany's across-seed parallelism,
	//     so large values suit single deep runs, not wide sweeps.
	//   - The options are shared by concurrent runs, so a stateful field
	//     such as *Fire belongs in FieldFor, not in a WithField here.
	Options []Option
	// FieldFor builds a per-run field from the run's seed. It overrides a
	// WithField in Options.
	FieldFor func(seed int64) Field
	// Faults is a declarative world script: kills, revivals, and moves
	// applied at absolute virtual times (warm-up time counts; the
	// paper-default warm-up ends at 5s). Events that resolve to nothing
	// are counted in WorldStats.Rejected, not errors.
	Faults []WorldEvent
	// Churn, when non-nil, overlays a seeded stochastic kill/revive
	// process expanded deterministically from the run's seed.
	Churn *ChurnProcess
	// Agents are injected in order after warm-up.
	Agents []AgentSpec
	// SkipWarmup starts injecting before neighbor discovery settles.
	SkipWarmup bool
	// Duration bounds the virtual run time after injection (default 60s).
	Duration time.Duration
	// Until, when set, stops the run early once it reports true; Metrics
	// .Completed records whether it did. When nil the run always lasts
	// Duration and Completed is true.
	Until func(*Network) bool
	// Play, when set, replaces the Duration/Until run loop entirely: it
	// scripts arbitrary phases (multi-stage injections, environment
	// changes, mid-run assertions) against the warmed-up network and
	// fills in custom metrics. Agents are still injected first if given.
	// Long-running phases should poll ctx (e.g. fold ctx.Err checks into
	// RunUntil predicates) so RunMany cancellation can interrupt them;
	// ctx is context.Background() for plain Run.
	Play func(ctx context.Context, nw *Network, m *Metrics) error
	// Collect, when set, harvests custom metrics after the run loop (or
	// after Play).
	Collect func(nw *Network, m *Metrics)
}

// Metrics is what one scenario run measured. All times are virtual.
type Metrics struct {
	// Seed identifies the run.
	Seed int64
	// Completed reports the Until predicate was satisfied (always true
	// when Until is nil and Play is nil; Play sets it itself or it
	// defaults to true).
	Completed bool
	// Elapsed is the virtual time consumed by the whole run, warm-up
	// included.
	Elapsed time.Duration
	// Agent census over the whole run: AgentsSpawned counts distinct
	// agent lifetimes (injections plus clones); agents still live when
	// the run ends are spawned but neither halted nor died.
	AgentsSpawned, AgentsHalted, AgentsDied int
	// Hops counts successful hop transfers network-wide; MigrationsFail
	// counts failed handoffs.
	Hops, MigrationsFail int
	// Radio medium counters.
	FramesSent, FramesDelivered, FramesDropped uint64
	// World dynamics census: scripted/churn kills plus energy deaths,
	// completed recoveries, and applied moves.
	NodesDied, NodesRecovered, NodesMoved int
	// EnergyUsedJ is the network-wide battery drain in joules (0 without
	// an energy model).
	EnergyUsedJ float64
	// Replication census: TuplesReplicated counts replica entries
	// accepted from gossip deltas network-wide, TuplesRecovered tuples
	// streamed back onto revived originators (both 0 without
	// WithReplication).
	TuplesReplicated, TuplesRecovered uint64
	// Values holds scenario-specific measurements from Play/Collect.
	Values map[string]float64
}

// Set records a custom measurement.
func (m *Metrics) Set(key string, v float64) {
	if m.Values == nil {
		m.Values = make(map[string]float64)
	}
	m.Values[key] = v
}

// String renders the metrics compactly, with custom values in sorted
// order so output is deterministic.
func (m *Metrics) String() string {
	s := fmt.Sprintf("seed=%d completed=%v elapsed=%v agents=%d/%d halted/%d died hops=%d frames=%d sent/%d dropped",
		m.Seed, m.Completed, m.Elapsed.Round(time.Millisecond),
		m.AgentsSpawned, m.AgentsHalted, m.AgentsDied, m.Hops, m.FramesSent, m.FramesDropped)
	if len(m.Values) > 0 {
		keys := make([]string, 0, len(m.Values))
		for k := range m.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s += fmt.Sprintf(" %s=%.4g", k, m.Values[k])
		}
	}
	return s
}

// Run executes the scenario once with the given seed and returns its
// metrics. Identical (scenario, seed) pairs produce identical metrics:
// everything runs on the deterministic discrete-event kernel.
func (s *Scenario) Run(seed int64) (*Metrics, error) {
	return s.run(context.Background(), seed)
}

func (s *Scenario) run(ctx context.Context, seed int64) (*Metrics, error) {
	if err := ctx.Err(); err != nil {
		return nil, err // don't pay deployment build + warm-up post-cancel
	}
	opts := append(slices.Clone(s.Options), WithSeed(seed))
	if s.FieldFor != nil {
		opts = append(opts, WithField(s.FieldFor(seed)))
	}
	nw, err := New(opts...)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	// Schedule the world script before anything runs: event times are
	// absolute, so faults can land during warm-up if scripted there.
	if len(s.Faults) > 0 {
		nw.Script(s.Faults...)
	}
	if s.Churn != nil {
		horizon := s.Churn.End
		if horizon <= 0 {
			// Cover warm-up plus the nominal run for Duration-driven
			// scenarios; Play-driven ones should set End explicitly.
			horizon = s.Duration
			if horizon <= 0 {
				horizon = time.Minute
			}
			horizon += 10 * time.Second
		}
		nw.Script(s.Churn.expand(seed, nw.Locations(), horizon)...)
	}
	// End any event/watch subscriptions a Play/Until/Collect hook made, so
	// sweeping thousands of seeds does not accumulate pump goroutines.
	defer nw.Close()
	if !s.SkipWarmup {
		if err := nw.WarmUp(); err != nil {
			return nil, fmt.Errorf("scenario %q: warm-up: %w", s.Name, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	m := &Metrics{Seed: seed, Completed: true}
	for i, spec := range s.Agents {
		dest := spec.At
		if dest.IsZero() {
			dest = nw.Base().Loc()
		}
		if _, err := nw.Launch(spec.Program, dest); err != nil {
			return nil, fmt.Errorf("scenario %q: launch %s: %w", s.Name, agentLabel(spec, i), err)
		}
	}

	if s.Play != nil {
		if err := s.Play(ctx, nw, m); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	} else {
		dur := s.Duration
		if dur <= 0 {
			dur = time.Minute
		}
		if s.Until != nil {
			// Check the predicate after every event; also poll the context
			// so RunMany cancellation interrupts long runs.
			done, err := nw.RunUntil(func() bool {
				return ctx.Err() != nil || s.Until(nw)
			}, dur)
			if err != nil {
				return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			m.Completed = done
		} else {
			// Run in one-second slices so cancellation stays responsive.
			for ran := time.Duration(0); ran < dur; ran += time.Second {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				step := min(time.Second, dur-ran)
				if err := nw.Run(step); err != nil {
					return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
				}
			}
		}
	}

	stats := nw.d.TotalStats()
	med := nw.d.Medium.Stats()
	m.Elapsed = nw.Now()
	// Count agent lifetimes from the registry, not NodeStats.AgentsHosted:
	// the latter counts per-node admissions, so every relay hop of a
	// multi-hop migration would inflate it. Nor from its records: a
	// wrapped ID's new lifetime replaces the dead one's record.
	m.AgentsSpawned = nw.agents.spawned()
	m.AgentsHalted = int(stats.AgentsHalted)
	m.AgentsDied = int(stats.AgentsDied)
	m.Hops = int(stats.MigrationsOK)
	m.MigrationsFail = int(stats.MigrationsFail)
	m.FramesSent = med.Sent
	m.FramesDelivered = med.Delivered
	m.FramesDropped = med.Dropped
	ws := nw.WorldStats()
	m.NodesDied = int(ws.Kills + stats.EnergyDeaths)
	m.NodesRecovered = int(ws.Revives)
	m.NodesMoved = int(ws.Moves)
	m.EnergyUsedJ = nw.d.EnergyUsedJ()
	m.TuplesReplicated = stats.TuplesReplicated
	m.TuplesRecovered = stats.TuplesRecovered
	if s.Collect != nil {
		s.Collect(nw, m)
	}
	return m, nil
}

func agentLabel(spec AgentSpec, i int) string {
	if spec.Name != "" {
		return spec.Name
	}
	if spec.Program != nil && spec.Program.Name() != "" {
		return spec.Program.Name()
	}
	return fmt.Sprintf("#%d", i)
}

// RunMany executes the scenario once per seed, fanning the independent
// deployments out across CPU cores. Results are returned in seed order
// and are identical to running each seed serially: each run has its own
// simulator, RNG, and network, so parallelism cannot perturb the virtual
// schedule.
//
// The context cancels outstanding work: runs not yet started are skipped
// and in-flight runs stop at their next event-slice boundary. The first
// error (including ctx.Err) is returned; on error the successfully
// completed prefix of results may be partial.
func (s *Scenario) RunMany(ctx context.Context, seeds []int64) ([]*Metrics, error) {
	if len(seeds) == 0 {
		return nil, nil
	}
	workers := min(runtime.GOMAXPROCS(0), len(seeds))
	results := make([]*Metrics, len(seeds))
	errs := make([]error, len(seeds))
	next := make(chan int)

	// Scenario-level errors are usually deterministic (bad program, bad
	// topology): once one seed fails, stop dispatching the rest instead
	// of paying deployment build + warm-up for a sweep that will be
	// discarded.
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = s.run(ctx, seeds[i])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range seeds {
		if ctx.Err() != nil || failed.Load() {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return results, err
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
