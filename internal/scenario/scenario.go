// Package scenario separates the declarative description of an
// experiment from its execution, the way a mature engine separates a
// prepared statement from the executor. A Scenario says *what* to run —
// catalog scale, workload spec, client population, measurement window,
// server-config deltas, ablation toggles — and the harness stays the
// *how*. A Registry holds every paper experiment by name so commands,
// examples, and benchmarks resolve configurations instead of hand-wiring
// harness options, and RunSweep executes independent scenarios
// concurrently across vtime event-loop shards (each run starts from
// fresh scheduler state, so per-run determinism is untouched).
package scenario

import (
	"fmt"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/engine"
	"compilegate/internal/fault"
	"compilegate/internal/harness"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// Scenario declaratively describes one experiment. The zero value is not
// runnable; start from a registered scenario or fill in every field.
type Scenario struct {
	// Name is the registry key ("figure3", "oltp-mix", ...).
	Name string
	// Description says what the experiment shows, for -list output.
	Description string

	// Clients is the concurrent user count.
	Clients int
	// Scale is the catalog scale factor (1.0 = the paper's 524 GB mart).
	Scale float64
	// Workload picks the query generator and catalog shape.
	Workload workload.Spec

	// Horizon/Warmup bound the measurement window: clients submit until
	// Horizon, measurements start at Warmup.
	Horizon time.Duration
	Warmup  time.Duration

	// Throttled enables compilation throttling (the paper's feature).
	Throttled bool
	// Seed drives all randomness in the run.
	Seed int64

	// Engine, when non-nil, mutates the default server config — ablation
	// toggles (monitor ladders, broker on/off, memory sizing) live here.
	Engine func(*engine.Config)
	// Load, when non-nil, mutates the default load config (think time,
	// retry policy).
	Load func(*workload.LoadConfig)
	// Fault, when non-nil, is the scripted failure plan injected into the
	// run (shared read-only across sweep runs of the scenario).
	Fault *fault.Plan

	// Nodes is how many independent engine instances run behind a
	// deterministic router; 0 means 1, the paper's single server.
	Nodes int
	// Router is the routing policy (zero value: round-robin). With one
	// node every policy routes everything to it.
	Router cluster.Policy
	// Health, when non-nil, turns on health-aware node exclusion in the
	// cluster router (shared read-only across sweep runs). Requires
	// Nodes > 1.
	Health *cluster.HealthConfig
	// Breaker, when non-nil, arms per-node circuit breakers in the
	// cluster router (shared read-only across sweep runs). Requires
	// Nodes > 1.
	Breaker *cluster.BreakerConfig
	// FailoverHops bounds router-level failover resubmission on crashed
	// responses (0 disables it). Requires Nodes > 1.
	FailoverHops int
}

// Validate reports whether the scenario describes a runnable experiment.
// Scale and the window are checked here because the harness would
// replace their zero values with defaults; every other check is the
// harness's own Options.Validate.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Scale <= 0 {
		return fmt.Errorf("scenario %s: scale = %g", s.Name, s.Scale)
	}
	if s.Horizon <= 0 || s.Warmup < 0 || s.Warmup >= s.Horizon {
		return fmt.Errorf("scenario %s: window [%v, %v)", s.Name, s.Warmup, s.Horizon)
	}
	if err := s.Options().Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return nil
}

// Options resolves the scenario into concrete harness options, applying
// the engine and load deltas over the defaults. Each call builds fresh
// config values, so concurrent runs never share mutable state.
func (s Scenario) Options() harness.Options {
	o := harness.Options{
		Clients:   s.Clients,
		Horizon:   s.Horizon,
		Warmup:    s.Warmup,
		Throttled: s.Throttled,
		Scale:     s.Scale,
		Workload:  s.Workload,
		Seed:      s.Seed,
		Fault:     s.Fault,
		Nodes:     s.Nodes,
		Router:    s.Router,

		Health:       s.Health,
		Breaker:      s.Breaker,
		FailoverHops: s.FailoverHops,
	}
	if s.Engine != nil {
		cfg := engine.DefaultConfig()
		s.Engine(&cfg)
		o.Engine = &cfg
	}
	if s.Load != nil {
		lcfg := workload.DefaultLoadConfig(s.Clients)
		s.Load(&lcfg)
		o.Load = &lcfg
	}
	return o
}

// Run executes the scenario to completion in virtual time.
func (s Scenario) Run() (*harness.Result, error) {
	return s.RunOn(nil)
}

// RunOn executes the scenario on the supplied idle scheduler (nil
// builds a private one); sweep shards pass their pooled scheduler.
func (s Scenario) RunOn(sched *vtime.Scheduler) (*harness.Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return harness.RunOn(sched, s.Options())
}

// Baseline returns the unthrottled twin of the scenario — the
// non-throttled comparison every paper figure makes.
func (s Scenario) Baseline() Scenario {
	s.Name += "-baseline"
	s.Description = "non-throttled baseline of " + s.Description
	s.Throttled = false
	return s
}

// WithWindow returns a copy with the measurement window replaced —
// quick modes and tests compress the window without touching the rest
// of the configuration.
func (s Scenario) WithWindow(horizon, warmup time.Duration) Scenario {
	s.Horizon, s.Warmup = horizon, warmup
	return s
}

// WithSeed returns a copy running under a different seed — sweeps over
// seeds use this for confidence intervals.
func (s Scenario) WithSeed(seed int64) Scenario {
	s.Seed = seed
	return s
}

// WithClients returns a copy at a different client count.
func (s Scenario) WithClients(n int) Scenario {
	s.Clients = n
	return s
}
