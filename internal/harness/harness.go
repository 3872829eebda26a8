// Package harness runs complete benchmark configurations — the virtual
// equivalent of the paper's test lab. One Run builds a scheduler, one or
// more simulated servers over the chosen catalog behind a router, and a
// closed-loop client population, executes the whole run in virtual
// time, and reports the same measurements the paper's figures plot.
package harness

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/engine"
	"compilegate/internal/fault"
	"compilegate/internal/metrics"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// Options selects a benchmark configuration.
type Options struct {
	// Clients is the concurrent user count (paper: 30 / 35 / 40).
	Clients int
	// Horizon is how long clients submit queries.
	Horizon time.Duration
	// Warmup excludes the initial portion from measurement, as §5.2 does
	// ("the data starts at an intermediate time index").
	Warmup time.Duration
	// Throttled toggles compilation throttling (the paper's comparison).
	Throttled bool
	// Scale scales the catalog (DESIGN.md: 0.04 keeps page counts
	// tractable while preserving the DB ≫ RAM ratio).
	Scale float64
	// Workload resolves the query generator and catalog; the zero value
	// is workload.SpecSales.
	Workload workload.Spec
	// Seed drives all randomness.
	Seed int64
	// Engine overrides the default engine config when non-nil (ablations
	// use this).
	Engine *engine.Config
	// Load overrides the default load config when non-nil.
	Load *workload.LoadConfig
	// Fault, when non-nil and non-empty, injects the scripted failure
	// plan into the run. Injections execute as ordinary scheduler tasks,
	// so determinism and sweep invariance are unaffected. The plan must
	// clear before Horizon.
	Fault *fault.Plan
	// Snapshot, when non-nil, supplies the shared immutable run state
	// (catalog, estimator, layout, statement identities) instead of the
	// process-wide cache. Its shape must match Workload and Scale. Runs
	// produce byte-identical results with shared, private, or absent
	// snapshots; the field exists for tests proving exactly that.
	Snapshot *Snapshot
	// Nodes is how many independent engine instances (each with its
	// own budget, governor, plan cache, and buffer pool) share one
	// scheduler and one snapshot behind a deterministic router. 0 means
	// 1: the paper's single server is a 1-node cluster.
	Nodes int
	// Router picks the routing policy (zero value: round-robin). With
	// one node every policy routes everything to it.
	Router cluster.Policy
	// Health, when non-nil, turns on health-aware node exclusion in the
	// cluster router: nodes past the overcommit/thrash thresholds are
	// skipped like crashed ones. Requires Nodes > 1.
	Health *cluster.HealthConfig
	// Breaker, when non-nil, arms a per-node circuit breaker in the
	// cluster router, driven by the errclass outcomes of routed
	// submissions. Requires Nodes > 1.
	Breaker *cluster.BreakerConfig
	// FailoverHops bounds router-level failover resubmission on
	// crashed responses (0 disables it). Requires Nodes > 1.
	FailoverHops int
}

// DefaultOptions returns the SALES configuration at the given client
// count with throttling enabled.
func DefaultOptions(clients int) Options {
	return Options{
		Clients:   clients,
		Horizon:   8 * time.Hour, // the paper measures t = 10800 s .. 28800 s
		Warmup:    3 * time.Hour,
		Throttled: true,
		Scale:     0.04,
		Workload:  workload.SpecSales,
		Seed:      1,
	}
}

// Result is one run's measurements.
type Result struct {
	Options Options
	// Series is completions per slice inside the measurement window —
	// the curve Figures 3-5 plot.
	Series []metrics.Point
	// Completed/Errors are totals inside the measurement window.
	Completed int64
	Errors    int64
	// ErrorsByKind covers the whole run.
	ErrorsByKind map[string]int64
	// Load is the client-side view.
	Load workload.LoadStats
	// CompileMemMean/Max profile per-query compile memory.
	CompileMemMean, CompileMemMax int64
	// BufferPoolHitRate is the end-of-run hit rate, pooled over nodes
	// as Σhits / Σ(hits+misses).
	BufferPoolHitRate float64
	// PlanCacheHitRate is the end-of-run plan-cache hit rate, pooled
	// the same way — the fingerprint-affinity routing claim reads this.
	PlanCacheHitRate float64
	// GatewayTimeouts / BestEffortPlans count throttling outcomes.
	GatewayTimeouts uint64
	BestEffortPlans uint64
	// BrownoutEntries / BrownoutTicks are the governor's brown-out
	// telemetry (summed across nodes): how many times
	// sustained pressure escalated admission to best-effort-only, and
	// for how many broker ticks in total.
	BrownoutEntries uint64
	BrownoutTicks   uint64
	// Rerouted / Resubmitted count the cluster router's health actions:
	// submissions steered away from their policy's first choice, and
	// failover resubmissions after crashed responses. RouterAllExcluded
	// counts submissions that found every node excluded and went to the
	// policy's first choice anyway; on a 1-node run that is every
	// submission made while the node was down.
	Rerouted          uint64
	Resubmitted       uint64
	RouterAllExcluded uint64
	// CompileP50/ExecP50 are median latencies; CompileP90 bounds the
	// compile-latency tail (the §5.2 profile claims).
	CompileP50, ExecP50 time.Duration
	CompileP90          time.Duration
	// Mid-run averages sampled inside the measurement window.
	AvgPoolBytes, AvgCompileBytes, AvgExecBytes int64
	AvgActiveCompiles                           float64
	// AvgOvercommitRatio is the mean wired-memory overcommit ratio inside
	// the window (>1 means the machine spent the window thrashing).
	AvgOvercommitRatio float64
	// PageStealBytes is buffer-pool memory the pager stole over the run.
	PageStealBytes int64
	// SimEvents is how many scheduler events the run dispatched — the
	// numerator of the simulator's own sim-events/sec throughput metric.
	SimEvents uint64
	// Fault reports what the fault plane did (nil for clean runs).
	Fault *fault.Stats
	// PreFaultThroughput is the mean completions per slice over full
	// slices before the first injection (0 when unmeasurable).
	PreFaultThroughput float64
	// Recovered reports whether, after the last injection cleared,
	// throughput came back within 10% of PreFaultThroughput before the
	// horizon; RecoveryTime is virtual time from fault clear to the end
	// of the first recovered slice — the graceful-degradation metric.
	Recovered    bool
	RecoveryTime time.Duration
	// Report is the diagnostic dump: the router distribution followed
	// by every node's engine dump.
	Report string
	// NodeResults is the per-node breakdown of the run, in node order;
	// a 1-node run has one entry.
	NodeResults []NodeResult
}

// NodeResult is one cluster node's share of a run.
type NodeResult struct {
	// Node is the index in router order (fixed at construction).
	Node int
	// Routed counts submissions the router forwarded here.
	Routed uint64
	// Completed/Errors are the node's totals inside the measurement
	// window.
	Completed int64
	Errors    int64
	// PlanCacheHits/Misses/HitRate are the node's plan-cache counters —
	// affinity routing shows up as a higher per-node hit rate.
	PlanCacheHits, PlanCacheMisses uint64
	PlanCacheHitRate               float64
	// BestEffortPlans / GatewayTimeouts count the node's throttling
	// outcomes; Crashes counts fault-plane crash onsets on this node.
	BestEffortPlans uint64
	GatewayTimeouts uint64
	Crashes         uint64
	// BrownoutEntries / BrownoutTicks are the node governor's brown-out
	// telemetry.
	BrownoutEntries uint64
	BrownoutTicks   uint64
	// BreakerState / BreakerTrips / BreakerTransitions describe the
	// node's circuit breaker at end of run (zero values when breakers
	// are disabled; BreakerState is then "").
	BreakerState       string
	BreakerTrips       uint64
	BreakerTransitions []cluster.BreakerTransition
}

// traceWindowAvg averages trace samples with T in [from, to).
func traceWindowAvg(tr *metrics.Trace, from, to time.Duration) int64 {
	var sum, n int64
	for _, p := range tr.Points {
		if p.T < from || p.T >= to {
			continue
		}
		sum += p.V
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// Throughput returns completions per hour inside the window.
func (r *Result) Throughput() float64 {
	window := (r.Options.Horizon - r.Options.Warmup).Hours()
	if window <= 0 {
		return 0
	}
	return float64(r.Completed) / window
}

// Run executes one configuration to completion in virtual time.
func Run(o Options) (*Result, error) {
	return RunOn(nil, o)
}

// withDefaults fills in the zero Scale and Horizon that RunOn accepts.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.04
	}
	if o.Horizon <= 0 {
		o.Horizon = 2 * time.Hour
	}
	return o
}

// Validate reports whether the options describe a runnable
// configuration. Zero Scale and Horizon are valid: RunOn replaces them
// with its defaults before the run.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.Clients <= 0 {
		return fmt.Errorf("harness: no clients")
	}
	if !o.Workload.Valid() {
		return fmt.Errorf("harness: unknown workload %q", string(o.Workload))
	}
	if o.Warmup >= o.Horizon {
		return fmt.Errorf("harness: warmup %v >= horizon %v", o.Warmup, o.Horizon)
	}
	if o.Nodes < 0 {
		return fmt.Errorf("harness: nodes = %d", o.Nodes)
	}
	if !o.Router.Valid() {
		return fmt.Errorf("harness: unknown router policy %q", string(o.Router))
	}
	if o.Nodes <= 1 && (o.Health != nil || o.Breaker != nil || o.FailoverHops != 0) {
		return fmt.Errorf("harness: router health/breaker/failover options need more than one node (nodes = %d)", o.Nodes)
	}
	if o.FailoverHops < 0 {
		return fmt.Errorf("harness: negative failover hops %d", o.FailoverHops)
	}
	if o.Fault != nil && !o.Fault.Empty() {
		if err := o.Fault.Validate(); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
		if lc := o.Fault.LastClear(); lc > o.Horizon {
			return fmt.Errorf("harness: fault plan clears at %v, past horizon %v", lc, o.Horizon)
		}
		if mx, nodes := o.Fault.MaxNode(), max(o.Nodes, 1); mx >= nodes {
			return fmt.Errorf("harness: fault plan targets node %d of a %d-node run", mx, nodes)
		}
	}
	if snap := o.Snapshot; snap != nil && (snap.Workload.String() != o.Workload.String() || snap.Scale != o.Scale) {
		return fmt.Errorf("harness: snapshot shape %s/%g does not match options %s/%g",
			snap.Workload, snap.Scale, o.Workload, o.Scale)
	}
	return nil
}

// RunOn is Run on a caller-supplied scheduler, which must be idle (nil
// builds a private one). Sweep shards pass their pooled scheduler here
// so back-to-back runs reuse its run queue, timer wheel, and task slab;
// results are bit-identical either way.
//
// A run is max(o.Nodes, 1) independent engine instances built in fixed
// order on one scheduler, sharing one immutable snapshot, fronted by the
// routing policy in o.Router; the paper's single server is the 1-node
// case. The client population submits through the router; the fault
// plane drives per-node surfaces. The run is deterministic: node order
// is fixed at construction, every router decision is a pure function of
// the statement text and per-node counters, and all tasks live on the
// run's single event loop.
func RunOn(sched *vtime.Scheduler, o Options) (*Result, error) {
	o = o.withDefaults()
	if err := o.Validate(); err != nil {
		return nil, err
	}

	var ecfg engine.Config
	if o.Engine != nil {
		ecfg = *o.Engine
	} else {
		ecfg = engine.DefaultConfig()
	}
	ecfg.Throttle = o.Throttled
	if !o.Throttled {
		ecfg.DynamicThresholds = false
		ecfg.BestEffort = false
	}

	snap := o.Snapshot
	if snap == nil {
		snap = SnapshotFor(o.Workload, o.Scale)
	}

	if sched == nil {
		sched = vtime.NewScheduler()
	}

	var lcfg workload.LoadConfig
	if o.Load != nil {
		lcfg = *o.Load
	} else {
		lcfg = workload.DefaultLoadConfig(o.Clients)
	}
	lcfg.Clients = o.Clients
	lcfg.Horizon = o.Horizon
	lcfg.Seed = o.Seed

	nodes := make([]*engine.Server, max(o.Nodes, 1))
	routed := make([]cluster.Node, len(nodes))
	for i := range nodes {
		srv, err := engine.NewShared(ecfg, snap.Catalog, snap.prebuilt(), sched)
		if err != nil {
			return nil, fmt.Errorf("harness: node %d: %w", i, err)
		}
		nodes[i] = srv
		routed[i] = srv
	}
	rcfg := cluster.Config{Policy: o.Router, FailoverHops: o.FailoverHops}
	if o.Health != nil {
		rcfg.Health = *o.Health
	}
	if o.Breaker != nil {
		rcfg.Breaker = *o.Breaker
	}
	router, err := cluster.NewRouter(rcfg, routed)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}

	gen := o.Workload.Generator()
	closeAll := func() {
		for _, srv := range nodes {
			srv.Close()
		}
	}
	loadStats := workload.Run(sched, router, gen, lcfg, closeAll)

	// Fault tasks spawn after the client population so task creation
	// order, and with it the whole event schedule, is a pure function of
	// the options.
	var faultStats *fault.Stats
	if o.Fault != nil && !o.Fault.Empty() {
		// Storm queries draw the generator's heavy templates when it has
		// them and go to the targeted node directly, not through the
		// router.
		heavy := gen.Next
		if hg, ok := gen.(interface{ NextHeavy(*rand.Rand) string }); ok {
			heavy = hg.NextHeavy
		}
		stormRNG := rand.New(rand.NewSource(o.Fault.Seed))
		surfaces := make([]fault.Surface, len(nodes))
		for i, srv := range nodes {
			surfaces[i] = fault.Surface{
				SetDiskStall: srv.SetDiskFault,
				Leak:         srv.LeakBallast,
				DropLeak:     srv.DropBallast,
				Crash:        srv.Crash,
				Restart:      srv.Restart,
				StormQuery: func(t *vtime.Task) error {
					return srv.Submit(t, heavy(stormRNG))
				},
			}
		}
		faultStats = fault.Inject(sched, *o.Fault, surfaces)
	}

	if err := sched.Run(); err != nil {
		return nil, fmt.Errorf("harness: simulation error: %w", err)
	}
	for i, srv := range nodes {
		if err := srv.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("harness: node %d: post-run invariant violation: %w", i, err)
		}
	}
	// Every client submission, client retry and router failover is
	// forwarded to exactly one node.
	var forwarded uint64
	for i := range nodes {
		forwarded += router.Routed(i)
	}
	if want := uint64(loadStats.Submitted+loadStats.Retries) + router.Resubmitted(); forwarded != want {
		return nil, fmt.Errorf("harness: router forwarded %d submissions, clients and failover made %d", forwarded, want)
	}

	res := aggregate(o, nodes, router, loadStats)
	res.SimEvents = sched.Events()
	if faultStats != nil {
		res.Fault = faultStats
		series := make([][]metrics.Point, len(nodes))
		for i, srv := range nodes {
			series[i] = srv.Recorder().CompletionSeries(0, o.Horizon)
		}
		measureRecovery(res, metrics.SumSeries(series...), nodes[0].Recorder().SliceDur(), o)
	}
	return res, nil
}

// measureRecovery computes the graceful-degradation metric: pre-fault
// throughput as the mean over full slices before the first injection
// (slice 0 excluded — it is ramp-up), then the first slice at or after
// the last clear whose completions are back within 10% of that mean.
// The series is the run's full completion series, summed over nodes.
func measureRecovery(res *Result, series []metrics.Point, sliceDur time.Duration, o Options) {
	onset, clear := o.Fault.FirstOnset(), o.Fault.LastClear()
	var sum, n int64
	for _, p := range series {
		if p.T > 0 && p.T+sliceDur <= onset {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return
	}
	pre := float64(sum) / float64(n)
	res.PreFaultThroughput = pre
	for _, p := range series {
		if p.T < clear {
			continue
		}
		// Only full slices count, matching the pre-fault mean: when the
		// horizon is not a multiple of the slice width, the truncated
		// final slice holds a fraction of a slice's completions and must
		// not decide recovery off a short sample.
		if p.T+sliceDur > o.Horizon {
			continue
		}
		if float64(p.V) >= 0.9*pre {
			res.Recovered = true
			res.RecoveryTime = p.T + sliceDur - clear
			return
		}
	}
}

// SeriesString renders a completion series like the paper's figures.
func SeriesString(points []metrics.Point) string {
	var sb strings.Builder
	for _, p := range points {
		fmt.Fprintf(&sb, "  t=%6.0fs  completed=%d\n", p.T.Seconds(), p.V)
	}
	return sb.String()
}

// Compare renders the throttled-vs-unthrottled comparison the paper's
// figures make, returning the improvement ratio. A starved baseline
// (zero completions) has no finite ratio: the ratio is +Inf when the
// throttled run completed anything and NaN when both completed
// nothing, and the summary says so instead of printing the
// improvement as -100%.
func Compare(throttled, baseline *Result) (ratio float64, summary string) {
	improvement := "undefined (both runs completed 0)"
	switch {
	case baseline.Completed > 0:
		ratio = float64(throttled.Completed) / float64(baseline.Completed)
		improvement = fmt.Sprintf("%.1f%%", (ratio-1)*100)
	case throttled.Completed > 0:
		ratio = math.Inf(1)
		improvement = "+inf (baseline completed 0)"
	default:
		ratio = math.NaN()
	}
	summary = fmt.Sprintf(
		"clients=%d window=[%v,%v): throttled=%d baseline=%d improvement=%s errors(throttled)=%d errors(baseline)=%d",
		throttled.Options.Clients, throttled.Options.Warmup, throttled.Options.Horizon,
		throttled.Completed, baseline.Completed, improvement,
		throttled.Errors, baseline.Errors)
	return ratio, summary
}
