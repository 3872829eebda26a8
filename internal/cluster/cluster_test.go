package cluster

import (
	"errors"
	"strings"
	"testing"

	"compilegate/internal/errclass"
	"compilegate/internal/sqlparser"
	"compilegate/internal/vtime"
)

// fakeNode records submissions and plays back scripted health/load.
type fakeNode struct {
	down       bool
	active     int
	overcommit float64
	thrash     float64
	brownedOut bool
	submitted  []string
	err        error
}

func (f *fakeNode) Submit(t *vtime.Task, sql string) error {
	f.submitted = append(f.submitted, sql)
	return f.err
}

func (f *fakeNode) Down() bool               { return f.down }
func (f *fakeNode) ActiveCompiles() int      { return f.active }
func (f *fakeNode) OvercommitRatio() float64 { return f.overcommit }
func (f *fakeNode) BrownedOut() bool         { return f.brownedOut }
func (f *fakeNode) ThrashScore() float64     { return f.thrash }

func fleet(n int) ([]*fakeNode, []Node) {
	fakes := make([]*fakeNode, n)
	nodes := make([]Node, n)
	for i := range fakes {
		fakes[i] = &fakeNode{}
		nodes[i] = fakes[i]
	}
	return fakes, nodes
}

func TestPolicyValidation(t *testing.T) {
	for _, p := range []Policy{"", RoundRobin, LeastLoaded, Affinity} {
		if !p.Valid() {
			t.Errorf("policy %q should be valid", p)
		}
	}
	if Policy("random").Valid() {
		t.Error("unknown policy validated")
	}
	if Policy("").String() != "round-robin" {
		t.Errorf("empty policy renders %q, want round-robin", Policy("").String())
	}
	if _, err := NewRouter(Config{Policy: "bogus"}, []Node{&fakeNode{}}); err == nil {
		t.Error("router accepted an unknown policy")
	}
	if _, err := NewRouter(Config{Policy: RoundRobin}, nil); err == nil {
		t.Error("router accepted an empty fleet")
	}
}

func TestRoundRobinCyclesAndSkipsDownNodes(t *testing.T) {
	fakes, nodes := fleet(3)
	r, err := NewRouter(Config{Policy: RoundRobin}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := r.Submit(nil, "q"); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range fakes {
		if len(f.submitted) != 2 {
			t.Errorf("node %d got %d submissions, want 2", i, len(f.submitted))
		}
	}

	// Node 1 crashes: its turn falls through to node 2 and the cursor
	// continues from there.
	fakes[1].down = true
	for i := 0; i < 4; i++ {
		r.Submit(nil, "q")
	}
	if len(fakes[1].submitted) != 2 {
		t.Errorf("down node received %d submissions, want still 2", len(fakes[1].submitted))
	}
	if got := len(fakes[0].submitted) + len(fakes[2].submitted); got != 8 {
		t.Errorf("live nodes received %d total, want 8", got)
	}
	if r.Rerouted() == 0 {
		t.Error("rerouted counter did not move while a node was down")
	}
}

func TestRoundRobinAllDownFallsBack(t *testing.T) {
	fakes, nodes := fleet(2)
	for _, f := range fakes {
		f.down = true
		f.err = errors.New("crashed")
	}
	r, _ := NewRouter(Config{Policy: RoundRobin}, nodes)
	if err := r.Submit(nil, "q"); err == nil {
		t.Fatal("submission to an all-down fleet should surface the node error")
	}
	if len(fakes[0].submitted)+len(fakes[1].submitted) != 1 {
		t.Fatal("all-down fleet should still receive the doomed submission")
	}
}

func TestLeastLoadedPicksArgminWithStableTies(t *testing.T) {
	fakes, nodes := fleet(3)
	fakes[0].active, fakes[1].active, fakes[2].active = 4, 1, 1
	r, _ := NewRouter(Config{Policy: LeastLoaded}, nodes)
	r.Submit(nil, "q")
	if len(fakes[1].submitted) != 1 {
		t.Fatal("least-loaded must break ties to the lowest index")
	}
	fakes[1].active = 9
	r.Submit(nil, "q")
	if len(fakes[2].submitted) != 1 {
		t.Fatal("least-loaded did not track the load signal")
	}
	// The lightest node crashing removes it from consideration.
	fakes[2].down = true
	r.Submit(nil, "q")
	if len(fakes[0].submitted) != 1 {
		t.Fatal("least-loaded routed to a down node")
	}
}

func TestAffinityPinsStatementsToHomes(t *testing.T) {
	fakes, nodes := fleet(4)
	r, _ := NewRouter(Config{Policy: Affinity}, nodes)
	stmts := []string{
		"SELECT * FROM dim_customer WHERE dim_customer.customer_id = 1",
		"SELECT * FROM dim_product WHERE dim_product.product_id = 37",
		"SELECT * FROM dim_customer WHERE dim_customer.customer_id = 202",
	}
	homes := make([]int, len(stmts))
	for si, sql := range stmts {
		want := int(sqlparser.Hash64(sqlparser.Fingerprint(sql)) % uint64(len(nodes)))
		homes[si] = want
		before := len(fakes[want].submitted)
		for i := 0; i < 3; i++ {
			r.Submit(nil, sql)
		}
		if got := len(fakes[want].submitted) - before; got != 3 {
			t.Errorf("statement %d: home node %d got %d of 3 submissions", si, want, got)
		}
	}

	// A down home falls through to the next live node, and comes back
	// after restart.
	home := homes[0]
	fakes[home].down = true
	r.Submit(nil, stmts[0])
	fallback := (home + 1) % len(nodes)
	if len(fakes[fallback].submitted) == 0 {
		t.Fatal("affinity did not fall through past the down home")
	}
	fakes[home].down = false
	before := len(fakes[home].submitted)
	r.Submit(nil, stmts[0])
	if len(fakes[home].submitted) != before+1 {
		t.Fatal("affinity did not return to the restarted home")
	}
}

// TestAllExcludedFallbackIsPolicyFirstChoice pins the all-excluded
// contract across every policy: the doomed submission goes to the
// policy's first choice computed without the eligibility filter.
// (pickLeastLoaded used to return node 0 here, silently diverging from
// the round-robin and affinity paths.)
func TestAllExcludedFallbackIsPolicyFirstChoice(t *testing.T) {
	affSQL := "SELECT * FROM dim_customer WHERE dim_customer.customer_id = 1"
	affHome := func(n int) int {
		return int(sqlparser.Hash64(sqlparser.Fingerprint(affSQL)) % uint64(n))
	}
	cases := []struct {
		name   string
		policy Policy
		sql    string
		active [3]int
		want   func() int
	}{
		{"round-robin-cursor", RoundRobin, "q", [3]int{0, 0, 0},
			func() int { return 0 }},
		{"affinity-home", Affinity, affSQL, [3]int{0, 0, 0},
			func() int { return affHome(3) }},
		{"least-loaded-argmin", LeastLoaded, "q", [3]int{4, 1, 2},
			func() int { return 1 }},
		{"least-loaded-tie-lowest-index", LeastLoaded, "q", [3]int{3, 3, 3},
			func() int { return 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fakes, nodes := fleet(3)
			for i, f := range fakes {
				f.down = true
				f.err = errors.New("crashed")
				f.active = tc.active[i]
			}
			r, err := NewRouter(Config{Policy: tc.policy}, nodes)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Submit(nil, tc.sql); err == nil {
				t.Fatal("all-down fleet should surface the node error")
			}
			want := tc.want()
			if got := len(fakes[want].submitted); got != 1 {
				t.Fatalf("first choice node %d got %d submissions (routed: %v)",
					want, got, []uint64{r.Routed(0), r.Routed(1), r.Routed(2)})
			}
			if r.AllExcluded() != 1 {
				t.Fatalf("all-excluded counter = %d, want 1", r.AllExcluded())
			}
		})
	}
}

// TestHealthExclusion pins the health envelope: every policy skips
// nodes past the overcommit/thrash thresholds (and browned-out ones
// when ShedBrownout is set) exactly like crashed nodes.
func TestHealthExclusion(t *testing.T) {
	newHealthy := func(policy Policy, h HealthConfig) ([]*fakeNode, *Router) {
		fakes, nodes := fleet(3)
		r, err := NewRouter(Config{Policy: policy, Health: h}, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return fakes, r
	}

	// Overcommit past the default 1.25 threshold excludes the node.
	fakes, r := newHealthy(RoundRobin, HealthConfig{Enabled: true})
	fakes[0].overcommit = 1.4
	for i := 0; i < 6; i++ {
		r.Submit(nil, "q")
	}
	if len(fakes[0].submitted) != 0 {
		t.Fatalf("overcommitted node took %d submissions", len(fakes[0].submitted))
	}
	if len(fakes[1].submitted)+len(fakes[2].submitted) != 6 {
		t.Fatal("healthy nodes did not absorb the load")
	}
	if r.Rerouted() == 0 {
		t.Error("rerouted counter did not move for a health exclusion")
	}

	// Thrash score past the default 0.9 threshold excludes too; at the
	// threshold it does not (inclusive envelope).
	fakes, r = newHealthy(RoundRobin, HealthConfig{Enabled: true})
	fakes[1].thrash = 0.95
	fakes[2].thrash = 0.9
	for i := 0; i < 6; i++ {
		r.Submit(nil, "q")
	}
	if len(fakes[1].submitted) != 0 {
		t.Fatalf("thrashing node took %d submissions", len(fakes[1].submitted))
	}
	if len(fakes[2].submitted) == 0 {
		t.Fatal("node at the thrash threshold was excluded")
	}

	// Brown-out only matters under ShedBrownout.
	fakes, r = newHealthy(LeastLoaded, HealthConfig{Enabled: true})
	fakes[0].brownedOut = true
	r.Submit(nil, "q")
	if len(fakes[0].submitted) != 1 {
		t.Fatal("browned-out node excluded without ShedBrownout")
	}
	fakes, r = newHealthy(LeastLoaded, HealthConfig{Enabled: true, ShedBrownout: true})
	fakes[0].brownedOut = true
	r.Submit(nil, "q")
	if len(fakes[0].submitted) != 0 {
		t.Fatal("ShedBrownout did not exclude the browned-out node")
	}
	if len(fakes[1].submitted) != 1 {
		t.Fatal("least-loaded did not move to the next healthy node")
	}
}

// TestFailoverResubmission pins the failover plane: crashed responses
// hop to the next eligible node within the hop budget, other error
// classes surface immediately, and an exhausted fleet stops masking.
func TestFailoverResubmission(t *testing.T) {
	fakes, nodes := fleet(3)
	r, err := NewRouter(Config{Policy: RoundRobin, FailoverHops: 2}, nodes)
	if err != nil {
		t.Fatal(err)
	}

	// Node 0 returns a crashed response (an in-flight loss: Down() is
	// still false); the router resubmits to node 1, which succeeds.
	fakes[0].err = errclass.Crashed
	if err := r.Submit(nil, "q"); err != nil {
		t.Fatalf("failover did not mask the crash: %v", err)
	}
	if len(fakes[0].submitted) != 1 || len(fakes[1].submitted) != 1 {
		t.Fatalf("submissions = %d/%d/%d, want 1/1/0",
			len(fakes[0].submitted), len(fakes[1].submitted), len(fakes[2].submitted))
	}
	if r.Resubmitted() != 1 {
		t.Fatalf("resubmitted = %d, want 1", r.Resubmitted())
	}

	// Shed responses are the admission policy speaking, not a dead
	// node: no failover, whichever node the cursor lands on.
	for _, f := range fakes {
		f.err = errclass.Shed
	}
	if err := r.Submit(nil, "q"); !errors.Is(err, errclass.Shed) {
		t.Fatalf("shed response was masked: %v", err)
	}
	if r.Resubmitted() != 1 {
		t.Fatal("shed response triggered failover")
	}

	// Every node crashing exhausts the hop budget: two hops after the
	// first attempt, then the error surfaces.
	fakes, nodes = fleet(3)
	for _, f := range fakes {
		f.err = errclass.Crashed
	}
	r, _ = NewRouter(Config{Policy: RoundRobin, FailoverHops: 2}, nodes)
	if err := r.Submit(nil, "q"); !errors.Is(err, errclass.Crashed) {
		t.Fatalf("exhausted failover returned %v", err)
	}
	total := len(fakes[0].submitted) + len(fakes[1].submitted) + len(fakes[2].submitted)
	if total != 3 || r.Resubmitted() != 2 {
		t.Fatalf("attempts = %d, resubmitted = %d, want 3 and 2", total, r.Resubmitted())
	}
}

// TestRouterBreakerTripsAndExcludes drives classified failures through
// the router until the node's breaker opens, then checks routing
// avoids it and the accessors report the trip.
func TestRouterBreakerTripsAndExcludes(t *testing.T) {
	fakes, nodes := fleet(2)
	cfg := Config{Policy: RoundRobin, Breaker: BreakerConfig{Enabled: true, Threshold: 3}}
	r, err := NewRouter(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := r.BreakerState(0); !ok || st != BreakerClosed {
		t.Fatalf("initial breaker state = %s/%v", st, ok)
	}
	// Node 0 sheds everything it sees; round-robin alternates, so node
	// 0 accumulates consecutive failures while node 1 stays healthy.
	fakes[0].err = errclass.Shed
	for i := 0; i < 8; i++ {
		r.Submit(nil, "q")
	}
	if st, _ := r.BreakerState(0); st != BreakerOpen {
		t.Fatalf("node 0 breaker = %s, want open", st)
	}
	if r.BreakerTrips(0) != 1 || r.BreakerTrips(1) != 0 {
		t.Fatalf("trips = %d/%d, want 1/0", r.BreakerTrips(0), r.BreakerTrips(1))
	}
	if len(r.BreakerTransitions(0)) != 1 {
		t.Fatalf("transition trail = %v", r.BreakerTransitions(0))
	}
	// With the breaker open (and a nil-task clock pinned at 0, inside
	// the cooldown) every further submission lands on node 1.
	before := len(fakes[0].submitted)
	for i := 0; i < 4; i++ {
		if err := r.Submit(nil, "q"); err != nil {
			t.Fatal(err)
		}
	}
	if len(fakes[0].submitted) != before {
		t.Fatal("open breaker did not exclude the node")
	}
	rep := r.Report()
	if !strings.Contains(rep, "breaker=open trips=1") || !strings.Contains(rep, "resubmitted=0") {
		t.Fatalf("report missing breaker fields:\n%s", rep)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	_, nodes := fleet(2)
	if _, err := NewRouter(Config{Policy: RoundRobin, FailoverHops: -1}, nodes); err == nil {
		t.Fatal("negative failover hops accepted")
	}
	if _, err := NewRouter(Config{Policy: "bogus"}, nodes); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRoutedCountersAndReport(t *testing.T) {
	_, nodes := fleet(2)
	r, _ := NewRouter(Config{Policy: RoundRobin}, nodes)
	for i := 0; i < 5; i++ {
		r.Submit(nil, "q")
	}
	if r.Len() != 2 || r.Policy() != RoundRobin {
		t.Fatal("accessors broken")
	}
	if r.Routed(0)+r.Routed(1) != 5 {
		t.Fatalf("routed counters sum to %d, want 5", r.Routed(0)+r.Routed(1))
	}
	rep := r.Report()
	if !strings.Contains(rep, "policy=round-robin") || !strings.Contains(rep, "node 1") {
		t.Fatalf("report missing fields:\n%s", rep)
	}
}
