// Package compilegate is a reproduction of "Managing Query Compilation
// Memory Consumption to Improve DBMS Throughput" (Baryshnikov et al.,
// CIDR 2007): a Memory Broker that arbitrates memory among DBMS
// subcomponents, and a chain of memory monitors (gateways) that throttles
// concurrent query compilations under memory pressure.
//
// The package exposes three layers:
//
//   - The governance primitives (Broker, GatewayChain, Governor) — usable
//     on their own to throttle any memory-hungry admission problem.
//   - A complete simulated DBMS (Server) — parser, Cascades-style
//     optimizer, buffer pool, plan cache, execution engine with memory
//     grants — running on a deterministic virtual clock.
//   - The benchmark harness (RunBenchmark) that reproduces the paper's
//     SALES experiments (Figures 2-5), driven by a declarative scenario
//     registry (Scenarios, RunScenario) and a parallel sweep runner
//     (RunSweep) that executes independent experiments on real cores.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package compilegate

import (
	"time"

	"compilegate/internal/broker"
	"compilegate/internal/catalog"
	"compilegate/internal/cluster"
	"compilegate/internal/core"
	"compilegate/internal/engine"
	"compilegate/internal/gateway"
	"compilegate/internal/harness"
	"compilegate/internal/mem"
	"compilegate/internal/scenario"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// Re-exported governance types: these are the paper's contribution and
// the heart of the public API.
type (
	// Broker is the Memory Broker (§3): it samples component usage,
	// detects trends, and issues grow/stable/shrink notifications with
	// per-component targets when memory pressure is predicted.
	Broker = broker.Broker
	// BrokerConfig tunes trend detection and pressure thresholds.
	BrokerConfig = broker.Config
	// Notification is a broker verdict delivered to one component.
	Notification = broker.Notification
	// Decision is a broker verdict kind (Grow / Stable / Shrink).
	Decision = broker.Decision

	// GatewayChain is the ladder of memory monitors (§4, Figure 1).
	GatewayChain = gateway.Chain
	// GatewayConfig configures the monitor ladder.
	GatewayConfig = gateway.Config
	// GatewayLevel configures one monitor.
	GatewayLevel = gateway.LevelConfig
	// ErrGatewayTimeout is the throttle-induced timeout error.
	ErrGatewayTimeout = gateway.ErrTimeout

	// Governor binds the broker and the gateways into the compilation
	// throttling policy; compilations allocate through it.
	Governor = core.Governor
	// GovernorOptions selects throttling features (§4.1 extensions
	// included).
	GovernorOptions = core.Options
	// Compilation is one query compilation's session with the Governor.
	Compilation = core.Compilation

	// Budget is the simulated machine memory budget.
	Budget = mem.Budget
	// Tracker accounts one component's memory against a Budget.
	Tracker = mem.Tracker

	// Scheduler is the deterministic virtual-time scheduler that hosts
	// simulations: a single-goroutine event loop dispatching explicit
	// continuations.
	Scheduler = vtime.Scheduler
	// Task is a cooperative thread of execution under a Scheduler.
	Task = vtime.Task
	// Step is a continuation — a task resume point the event loop
	// dispatches; see Scheduler.GoStep for stackless tasks.
	Step = vtime.Step
	// StepFunc adapts a plain function to a Step.
	StepFunc = vtime.StepFunc

	// Server is the fully assembled simulated DBMS.
	Server = engine.Server
	// ServerConfig assembles a Server.
	ServerConfig = engine.Config
	// CompileStages is the staged compile-memory model: the bind /
	// costing / codegen footprint a compilation wires beyond its
	// exploration memo, ramped through the gateway ladder over the
	// compilation's lifetime.
	CompileStages = engine.CompileStages

	// Catalog describes a database schema.
	Catalog = catalog.Catalog

	// BenchmarkOptions selects a paper experiment configuration.
	BenchmarkOptions = harness.Options
	// BenchmarkResult carries one run's measurements.
	BenchmarkResult = harness.Result
	// NodeResult is one node's share of a run
	// (BenchmarkResult.NodeResults; a 1-node run has one entry).
	NodeResult = harness.NodeResult

	// RouterPolicy selects how a cluster run routes statements to its
	// nodes (round-robin, least-loaded, fingerprint affinity).
	RouterPolicy = cluster.Policy
	// ClusterRouter is the deterministic statement router fronting the
	// nodes of a multi-node run.
	ClusterRouter = cluster.Router
	// RouterConfig assembles a ClusterRouter: policy plus the optional
	// health-exclusion, circuit-breaker, and failover mechanisms.
	RouterConfig = cluster.Config
	// RouterHealthConfig turns on health-aware node exclusion in the
	// cluster router (Scenario.Health / BenchmarkOptions.Health).
	RouterHealthConfig = cluster.HealthConfig
	// RouterBreakerConfig arms per-node circuit breakers in the cluster
	// router (Scenario.Breaker / BenchmarkOptions.Breaker).
	RouterBreakerConfig = cluster.BreakerConfig
	// BreakerState is a circuit breaker's position: closed, open, or
	// half-open.
	BreakerState = cluster.BreakerState
	// BreakerTransition is one entry of a node breaker's state-change
	// trail (NodeResult.BreakerTransitions).
	BreakerTransition = cluster.BreakerTransition

	// Scenario declaratively describes one experiment: workload spec,
	// catalog scale, client population, measurement window, and
	// server-config deltas.
	Scenario = scenario.Scenario
	// Registry is a named scenario collection; the package keeps a
	// default instance holding every paper experiment.
	Registry = scenario.Registry
	// SweepResult is one scenario's outcome within a RunSweep.
	SweepResult = scenario.SweepResult

	// WorkloadSpec names a workload ("sales", "tpch", "oltp", "mix").
	WorkloadSpec = workload.Spec

	// PressureModel is the memory-pressure (thrash) model: commit limit,
	// paging threshold, and the slowdown a thrashing machine pays.
	PressureModel = mem.PressureModel

	// Calibration describes a pressure-knob sweep grid; its Run method
	// executes every throttled/baseline cell concurrently.
	Calibration = scenario.Calibration
	// CalibrationReport holds a finished sweep with fidelity scoring
	// against the paper's Figures 3-5.
	CalibrationReport = scenario.CalibrationReport
	// PressureKnobs is one knob set of a calibration grid.
	PressureKnobs = scenario.PressureKnobs
	// CalibrationPoint is one grid cell (a throttled/baseline pair).
	CalibrationPoint = scenario.CalibrationPoint
	// FidelityTarget is a paper separation to calibrate toward.
	FidelityTarget = scenario.FidelityTarget
	// SearchReport is a finished successive-halving calibration search
	// (Calibration.Search): the grid's best fidelity at a fraction of
	// its simulation budget.
	SearchReport = scenario.SearchReport
	// SearchRung is one rung of the halving schedule.
	SearchRung = scenario.SearchRung

	// Replication is a multi-seed run of one scenario; every paper claim
	// is asserted over a replication, not a single draw.
	Replication = scenario.Replication
	// ReplicationReport holds a finished replication in seed order.
	ReplicationReport = scenario.ReplicationReport
	// SeedRun is one seed's outcome within a replication.
	SeedRun = scenario.SeedRun
	// Metric extracts one number from a seed's outcome.
	Metric = scenario.Metric
	// ClaimBand states a paper claim as a band over a replicated metric:
	// it holds when the bootstrap CI lies inside [Lo, Hi].
	ClaimBand = scenario.ClaimBand
	// StatSummary condenses per-seed samples: point statistics plus a
	// bootstrap percentile confidence interval for the mean.
	StatSummary = scenario.Summary
	// StatInterval is a closed confidence interval.
	StatInterval = scenario.Interval
)

// Byte-size helpers re-exported for configuration literals.
const (
	KiB = mem.KiB
	MiB = mem.MiB
	GiB = mem.GiB
)

// ErrOutOfMemory is the simulated machine's allocation failure.
var ErrOutOfMemory = mem.ErrOutOfMemory

// Error kinds recorded per failed query — the keys of
// BenchmarkResult.ErrorsByKind.
const (
	ErrKindOOM            = engine.ErrKindOOM
	ErrKindGatewayTimeout = engine.ErrKindGatewayTimeout
	ErrKindGrantTimeout   = engine.ErrKindGrantTimeout
	ErrKindOther          = engine.ErrKindOther
)

// NewScheduler creates a virtual-time scheduler.
func NewScheduler() *Scheduler { return vtime.NewScheduler() }

// NewBudget creates a simulated memory budget of total bytes.
func NewBudget(total int64) *Budget { return mem.NewBudget(total) }

// NewBroker creates a Memory Broker over budget.
func NewBroker(cfg BrokerConfig, budget *Budget) *Broker { return broker.New(cfg, budget) }

// DefaultBrokerConfig returns the calibrated broker tuning.
func DefaultBrokerConfig() BrokerConfig { return broker.DefaultConfig() }

// NewGatewayChain builds a monitor ladder.
func NewGatewayChain(cfg GatewayConfig) (*GatewayChain, error) { return gateway.NewChain(cfg) }

// DefaultGatewayConfig returns the paper's three-monitor ladder for a
// machine with the given CPU count and contested memory size.
func DefaultGatewayConfig(cpus int, contestedBytes int64) GatewayConfig {
	return gateway.DefaultConfig(cpus, contestedBytes)
}

// NewGovernor creates a compilation governor charging tracker.
func NewGovernor(opts GovernorOptions, tracker *Tracker) (*Governor, error) {
	return core.NewGovernor(opts, tracker)
}

// DefaultGovernorOptions enables the full §4 + §4.1 feature set.
func DefaultGovernorOptions(cpus int, totalMem int64) GovernorOptions {
	return core.DefaultOptions(cpus, totalMem)
}

// NewServer assembles a simulated DBMS over cat inside sched.
func NewServer(cfg ServerConfig, cat *Catalog, sched *Scheduler) (*Server, error) {
	return engine.New(cfg, cat, sched)
}

// DefaultServerConfig reproduces the paper's testbed with throttling on.
func DefaultServerConfig() ServerConfig { return engine.DefaultConfig() }

// DefaultCompileStages returns the calibrated staged compile-memory
// model (an order-of-magnitude lifetime ramp over the exploration
// memo; see DESIGN.md, "Staged compile-memory model").
func DefaultCompileStages() CompileStages { return engine.DefaultCompileStages() }

// NewSalesCatalog builds the SALES data-mart schema at the given scale
// (1.0 = the paper's 524 GB mart with a >400M-row fact table).
func NewSalesCatalog(scale float64) *Catalog {
	return catalog.NewSales(catalog.SalesConfig{Scale: scale, ExtentBytes: 8 * MiB})
}

// RunBenchmark executes one paper experiment configuration end to end in
// virtual time and returns its measurements.
func RunBenchmark(o BenchmarkOptions) (*BenchmarkResult, error) { return harness.Run(o) }

// DefaultBenchmarkOptions returns the SALES configuration at the given
// client count (the paper uses 30, 35 and 40) with throttling enabled.
// It resolves through the scenario layer; prefer SalesScenario for new
// code.
func DefaultBenchmarkOptions(clients int) BenchmarkOptions {
	return scenario.Sales(clients).Options()
}

// SalesScenario returns the canonical §5 SALES experiment at the given
// client count; derive variants with its With* methods.
func SalesScenario(clients int) Scenario { return scenario.Sales(clients) }

// CompareRuns renders the throttled-vs-baseline comparison of Figures 3-5
// and returns the throughput improvement ratio.
func CompareRuns(throttled, baseline *BenchmarkResult) (float64, string) {
	return harness.Compare(throttled, baseline)
}

// DefaultPressureModel returns the calibrated thrash model (selected by
// cmd/calibrate; see EXPERIMENTS.md).
func DefaultPressureModel() PressureModel { return mem.DefaultPressureModel() }

// DefaultCalibration returns the pressure sweep grid cmd/calibrate runs:
// the shipped calibration plus its neighborhood.
func DefaultCalibration() Calibration { return scenario.DefaultCalibration() }

// PaperTargets returns the Figures 3-5 throughput separations the
// calibration scores against.
func PaperTargets() []FidelityTarget { return scenario.PaperTargets() }

// ReplicationSeeds returns the canonical replication seed list {1..n}.
func ReplicationSeeds(n int) []int64 { return scenario.Seeds(n) }

// Summarize condenses per-seed samples with a bootstrap confidence
// interval at the given coverage (0 defaults to 0.95). The resampler is
// deterministic: identical samples always carry identical intervals.
func Summarize(xs []float64, confidence float64) StatSummary {
	return scenario.Summarize(xs, confidence)
}

// NewRegistry creates an empty scenario registry (the paper experiments
// live in the default registry; see Scenarios).
func NewRegistry() *Registry { return scenario.NewRegistry() }

// Scenarios returns every registered paper experiment, sorted by name.
func Scenarios() []Scenario { return scenario.All() }

// ScenarioByName resolves a registered experiment ("figure3",
// "oltp-mix", ...).
func ScenarioByName(name string) (Scenario, bool) { return scenario.Get(name) }

// ScenarioNames lists the registered experiment names.
func ScenarioNames() []string { return scenario.Names() }

// ListScenarios renders the registry as a table for -list flags.
func ListScenarios() string { return scenario.List() }

// ParseWorkload validates a workload name from a flag or config file.
func ParseWorkload(s string) (WorkloadSpec, error) { return workload.ParseSpec(s) }

// RunScenario executes one scenario to completion in virtual time.
func RunScenario(s Scenario) (*BenchmarkResult, error) { return s.Run() }

// RunSweep executes independent scenarios concurrently on a bounded
// worker pool (workers <= 0 uses GOMAXPROCS). Every run owns a private
// scheduler, so results are identical to running each scenario serially.
func RunSweep(scenarios []Scenario, workers int) []SweepResult {
	return scenario.RunSweep(scenarios, workers)
}

// Sanity re-exports so the constants are reachable without the internal
// import path.
const (
	Grow   = broker.Grow
	Stable = broker.Stable
	Shrink = broker.Shrink
)

// The cluster routing policies (Scenario.Router / BenchmarkOptions.Router).
const (
	RouteRoundRobin  = cluster.RoundRobin
	RouteLeastLoaded = cluster.LeastLoaded
	RouteAffinity    = cluster.Affinity
)

// The circuit-breaker states a cluster node's breaker moves through.
const (
	BreakerClosed   = cluster.BreakerClosed
	BreakerOpen     = cluster.BreakerOpen
	BreakerHalfOpen = cluster.BreakerHalfOpen
)

// Version of the reproduction.
const Version = "1.0.0"

// DefaultMeasurementWindow returns the paper's figure window
// (10800 s - 28800 s).
func DefaultMeasurementWindow() (from, to time.Duration) {
	return 3 * time.Hour, 8 * time.Hour
}
