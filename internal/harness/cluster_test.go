package harness

import (
	"reflect"
	"testing"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/fault"
	"compilegate/internal/metrics"
	"compilegate/internal/workload"
)

func clusterOpts(nodes int, policy cluster.Policy) Options {
	o := DefaultOptions(12)
	o.Workload = workload.SpecOLTP
	o.Horizon = 30 * time.Minute
	o.Warmup = 5 * time.Minute
	o.Nodes = nodes
	o.Router = policy
	return o
}

func TestClusterRunAggregates(t *testing.T) {
	o := clusterOpts(3, cluster.RoundRobin)
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NodeResults) != 3 {
		t.Fatalf("node results = %d, want 3", len(r.NodeResults))
	}
	if r.Completed == 0 {
		t.Fatal("cluster completed nothing")
	}
	var completed, errs int64
	var routed uint64
	for i, nr := range r.NodeResults {
		if nr.Node != i {
			t.Fatalf("node result %d has Node=%d", i, nr.Node)
		}
		completed += nr.Completed
		errs += nr.Errors
		routed += nr.Routed
	}
	if completed != r.Completed || errs != r.Errors {
		t.Fatalf("node sums %d/%d != cluster totals %d/%d", completed, errs, r.Completed, r.Errors)
	}
	// The router forwards every submission, including retries.
	if want := uint64(r.Load.Submitted + r.Load.Retries); routed != want {
		t.Fatalf("routed sum %d != submissions %d", routed, want)
	}
	// With every node up, round-robin distributes exactly evenly.
	lo, hi := r.NodeResults[0].Routed, r.NodeResults[0].Routed
	for _, nr := range r.NodeResults[1:] {
		if nr.Routed < lo {
			lo = nr.Routed
		}
		if nr.Routed > hi {
			hi = nr.Routed
		}
	}
	if hi-lo > 1 {
		t.Fatalf("round-robin skew: routed counts span [%d, %d]", lo, hi)
	}
	// The series is the per-slice node sum.
	var sum int64
	for _, p := range r.Series {
		sum += p.V
	}
	if sum != r.Completed {
		t.Fatalf("series sum %d != completed %d", sum, r.Completed)
	}
	if r.Report == "" || r.PlanCacheHitRate <= 0 {
		t.Fatalf("missing aggregate fields: report=%d bytes, hit rate=%v", len(r.Report), r.PlanCacheHitRate)
	}
}

func TestClusterRunDeterministic(t *testing.T) {
	o := clusterOpts(2, cluster.LeastLoaded)
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.Errors != b.Errors {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Completed, a.Errors, b.Completed, b.Errors)
	}
	if !reflect.DeepEqual(a.NodeResults, b.NodeResults) {
		t.Fatalf("node results diverge:\n%+v\n%+v", a.NodeResults, b.NodeResults)
	}
}

func TestClusterAffinityBeatsRoundRobinOnWidePool(t *testing.T) {
	// Round-robin pays the 2000-statement cold-miss bill on every node;
	// affinity pays it once across the fleet.
	base := clusterOpts(4, cluster.Affinity)
	base.Workload = workload.SpecOLTPWide
	aff, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rrOpts := base
	rrOpts.Router = cluster.RoundRobin
	rr, err := Run(rrOpts)
	if err != nil {
		t.Fatal(err)
	}
	if aff.PlanCacheHitRate <= rr.PlanCacheHitRate {
		t.Fatalf("affinity hit rate %.4f not above round-robin %.4f",
			aff.PlanCacheHitRate, rr.PlanCacheHitRate)
	}
}

func TestClusterFaultTargetsOneNode(t *testing.T) {
	o := clusterOpts(2, cluster.RoundRobin)
	o.Fault = &fault.Plan{Seed: 5, Injections: []fault.Injection{
		{Kind: fault.CrashRestart, Node: 1, At: 10 * time.Minute, Duration: 3 * time.Minute},
	}}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.NodeResults[0].Crashes != 0 || r.NodeResults[1].Crashes != 1 {
		t.Fatalf("crashes = %d/%d, want 0/1",
			r.NodeResults[0].Crashes, r.NodeResults[1].Crashes)
	}
	if r.Fault == nil || r.Fault.Crashes != 1 {
		t.Fatalf("fault stats = %+v", r.Fault)
	}
}

// TestClusterBreakerRunSurfacesRouterDiagnostics runs a breaker-armed
// cluster through a node loss and checks the router's health actions
// land in the Result: breaker state and trips per node, rerouted and
// resubmitted counters, and the routed accounting extended by failover
// hops.
func TestClusterBreakerRunSurfacesRouterDiagnostics(t *testing.T) {
	o := clusterOpts(2, cluster.RoundRobin)
	o.Breaker = &cluster.BreakerConfig{Enabled: true, Threshold: 3}
	o.FailoverHops = 1
	o.Fault = &fault.Plan{Seed: 7, Injections: []fault.Injection{
		{Kind: fault.CrashRestart, Node: 1, At: 10 * time.Minute, Duration: 5 * time.Minute},
	}}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for i, nr := range r.NodeResults {
		if nr.BreakerState == "" {
			t.Fatalf("node %d: breaker state missing from result", i)
		}
	}
	if r.NodeResults[1].BreakerTrips == 0 {
		t.Fatal("crashed node's breaker never tripped")
	}
	if len(r.NodeResults[1].BreakerTransitions) == 0 {
		t.Fatal("crashed node has no breaker transition trail")
	}
	if r.Rerouted == 0 {
		t.Fatal("rerouted counter missing from result")
	}
	var routed uint64
	for _, nr := range r.NodeResults {
		routed += nr.Routed
	}
	if want := uint64(r.Load.Submitted+r.Load.Retries) + r.Resubmitted; routed != want {
		t.Fatalf("routed sum %d != submissions+failovers %d", routed, want)
	}
	// The run is deterministic like every other cluster configuration.
	again, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.NodeResults, again.NodeResults) {
		t.Fatalf("breaker-armed run is nondeterministic:\n%+v\n%+v", r.NodeResults, again.NodeResults)
	}
}

func TestClusterValidation(t *testing.T) {
	o := clusterOpts(2, cluster.Policy("bogus"))
	if _, err := Run(o); err == nil {
		t.Fatal("unknown router policy accepted")
	}
	o = clusterOpts(2, cluster.RoundRobin)
	o.Fault = &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.CrashRestart, Node: 2, At: time.Minute, Duration: time.Minute},
	}}
	if _, err := Run(o); err == nil {
		t.Fatal("fault plan targeting a missing node accepted")
	}
}

func TestMeasureRecoverySkipsPartialFinalSlice(t *testing.T) {
	// 55-minute horizon over 10-minute slices leaves a truncated final
	// slice holding ~half a slice's completions; it must not decide
	// recovery either way.
	const sliceDur = 10 * time.Minute
	plan := &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.DiskStall, At: 25 * time.Minute, Duration: 5 * time.Minute, Factor: 2},
	}}
	series := []metrics.Point{
		{T: 0, V: 100}, // ramp-up, excluded from the pre-fault mean
		{T: 10 * time.Minute, V: 100},
		{T: 20 * time.Minute, V: 100}, // straddles the onset, excluded
		{T: 30 * time.Minute, V: 50},
		{T: 40 * time.Minute, V: 80},
		{T: 50 * time.Minute, V: 95}, // truncated: only 5 of 10 minutes ran
	}
	o := Options{Horizon: 55 * time.Minute, Fault: plan}
	res := &Result{}
	measureRecovery(res, series, sliceDur, o)
	if res.PreFaultThroughput != 100 {
		t.Fatalf("pre-fault throughput = %v, want 100", res.PreFaultThroughput)
	}
	if res.Recovered {
		t.Fatal("partial final slice decided recovery")
	}

	// With the horizon extended so the same slice is full, it counts.
	o.Horizon = 60 * time.Minute
	res = &Result{}
	measureRecovery(res, series, sliceDur, o)
	if !res.Recovered {
		t.Fatal("full recovered slice not accepted")
	}
	// Clear is 30m; the recovered slice ends at 60m.
	if res.RecoveryTime != 30*time.Minute {
		t.Fatalf("recovery time = %v, want 30m", res.RecoveryTime)
	}
}

func TestSingleServerIsOneNodeCluster(t *testing.T) {
	o := quickOpts(8)
	zero, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Nodes = 1
	one, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	one.Options.Nodes = zero.Options.Nodes
	if !reflect.DeepEqual(zero, one) {
		t.Fatalf("Nodes 0 and 1 diverge:\n%+v\n%+v", zero, one)
	}
	if len(zero.NodeResults) != 1 {
		t.Fatalf("node results = %d, want 1", len(zero.NodeResults))
	}
	nr := zero.NodeResults[0]
	if nr.Completed != zero.Completed {
		t.Fatalf("node completed %d != run completed %d", nr.Completed, zero.Completed)
	}
	if want := uint64(zero.Load.Submitted + zero.Load.Retries); nr.Routed != want {
		t.Fatalf("routed %d != submissions+retries %d", nr.Routed, want)
	}
}
