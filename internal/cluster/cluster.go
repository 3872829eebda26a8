// Package cluster models a fleet of independent engine instances behind
// a deterministic router — the deployment architecture real systems put
// in front of the paper's single server: N nodes, each with its own
// memory budget, governor, plan cache, and buffer pool, sharing nothing
// but the event loop and the immutable run snapshot.
//
// Beyond crash-skipping, the router can run as a self-healing control
// loop: every node exposes a health signal (memory overcommit, governor
// brown-out, a thrash score), a per-node circuit breaker trips on
// observed errclass failures and re-admits a recovering node through
// half-open probes, and failover resubmission retries a crashed
// response on the next healthy node within a bounded hop budget. All
// three mechanisms are off by default: a zero Config beyond its Policy
// is the classic dispatcher.
//
// Determinism is by construction: the node list is fixed at router
// construction, every routing decision is a pure function of the
// statement text, the virtual clock, and per-node state mutated only
// from task context on the run's single event loop, and no policy or
// breaker draws randomness. A cluster run is therefore exactly as
// reproducible as a single-server run, and sweep shard/worker
// invariance carries over untouched.
package cluster

import (
	"fmt"
	"strings"
	"time"

	"compilegate/internal/errclass"
	"compilegate/internal/sqlparser"
	"compilegate/internal/vtime"
	"compilegate/internal/workload"
)

// Policy names a routing discipline.
type Policy string

const (
	// RoundRobin cycles through the nodes in construction order,
	// skipping crashed nodes — external load balancing with health
	// checks and no statement inspection.
	RoundRobin Policy = "round-robin"
	// LeastLoaded picks the live node with the fewest active
	// compilations (ties break to the lowest index) — the router sheds
	// around a node whose compile queue is backing up.
	LeastLoaded Policy = "least-loaded"
	// Affinity hashes the statement fingerprint to a home node, so a
	// recurring statement always lands where its plan is already
	// cached; crashed homes fall through to the next live node.
	Affinity Policy = "affinity"
)

// Valid reports whether the policy names a known discipline. The empty
// policy is valid and means RoundRobin, so zero-valued options keep the
// classic behaviour.
func (p Policy) Valid() bool {
	switch p {
	case "", RoundRobin, LeastLoaded, Affinity:
		return true
	}
	return false
}

func (p Policy) orDefault() Policy {
	if p == "" {
		return RoundRobin
	}
	return p
}

// String returns the canonical policy name.
func (p Policy) String() string { return string(p.orDefault()) }

// Node is the router's view of one engine instance: it accepts
// submissions, reports whether it is crashed, and exposes the load and
// health signals routing decisions read. engine.Server implements it.
type Node interface {
	workload.Submitter
	// Down reports whether the node is crashed (submissions fail until
	// it restarts).
	Down() bool
	// ActiveCompiles is the node's in-flight compilation count.
	ActiveCompiles() int
	// OvercommitRatio is the node's wired-memory overcommit ratio
	// (above 1 the node is paging; see mem.Budget.OvercommitRatio).
	OvercommitRatio() float64
	// BrownedOut reports whether the node's governor is in its
	// sustained-pressure brown-out mode.
	BrownedOut() bool
	// ThrashScore is the node's paging-slowdown severity normalized to
	// [0, 1]: 0 is healthy, 1 is at the pressure model's slowdown cap
	// (or predicted memory exhaustion).
	ThrashScore() float64
}

// HealthConfig turns on health-aware node exclusion: every routing
// policy skips nodes whose health signal crosses these thresholds, the
// same way all policies already skip crashed nodes. Exclusion (rather
// than weighting) keeps routing decisions pure threshold functions of
// node state — deterministic and cheap.
type HealthConfig struct {
	// Enabled turns health exclusion on.
	Enabled bool
	// MaxOvercommit excludes a node whose wired-memory overcommit
	// ratio exceeds it (0 defaults to 1.25 — comfortably past the
	// paging threshold, so brief excursions don't flap routing).
	MaxOvercommit float64
	// MaxThrash excludes a node whose thrash score exceeds it
	// (0 defaults to 0.9).
	MaxThrash float64
	// ShedBrownout additionally excludes nodes whose governor is in
	// brown-out (off by default: a browned-out node still completes
	// work, just with degraded plans).
	ShedBrownout bool
}

func (h HealthConfig) maxOvercommit() float64 {
	if h.MaxOvercommit <= 0 {
		return 1.25
	}
	return h.MaxOvercommit
}

func (h HealthConfig) maxThrash() float64 {
	if h.MaxThrash <= 0 {
		return 0.9
	}
	return h.MaxThrash
}

// Config assembles a Router. The zero value (plus a policy) is the
// classic blind dispatcher; Health, Breaker, and FailoverHops each
// opt into one self-healing mechanism independently.
type Config struct {
	// Policy is the routing discipline (zero value: round-robin).
	Policy Policy
	// Health configures health-aware node exclusion.
	Health HealthConfig
	// Breaker configures the per-node circuit breakers.
	Breaker BreakerConfig
	// FailoverHops bounds router-level failover resubmission: when a
	// routed submission comes back with a crashed-class error, the
	// router resubmits it to the next eligible node up to this many
	// times before surfacing the error to the client. 0 disables
	// failover (the classic behaviour).
	FailoverHops int
}

// Router fronts a fixed fleet of nodes and implements
// workload.Submitter: clients submit to the router, the router picks a
// node under its policy and forwards the query. When every node is
// excluded (down, tripped, or unhealthy) the submission still goes to
// the policy's first choice, whose error flows back to the client's
// retry loop — the router models a load balancer, not a queue.
type Router struct {
	cfg   Config
	nodes []Node

	next        int      // round-robin cursor
	routed      []uint64 // per-node forwarded submissions
	rerouted    uint64   // submissions steered away from the policy's first choice
	resubmitted uint64   // failover resubmissions after a crashed response
	allExcluded uint64   // submissions forced onto an excluded fleet
	breakers    []*breaker
}

// NewRouter builds a router from a full config over the nodes in the
// given (fixed) order.
func NewRouter(cfg Config, nodes []Node) (*Router, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	if !cfg.Policy.Valid() {
		return nil, fmt.Errorf("cluster: unknown policy %q", string(cfg.Policy))
	}
	if cfg.FailoverHops < 0 {
		return nil, fmt.Errorf("cluster: negative failover hops %d", cfg.FailoverHops)
	}
	cfg.Policy = cfg.Policy.orDefault()
	r := &Router{
		cfg:    cfg,
		nodes:  nodes,
		routed: make([]uint64, len(nodes)),
	}
	if cfg.Breaker.Enabled {
		r.breakers = make([]*breaker, len(nodes))
		for i := range r.breakers {
			r.breakers[i] = newBreaker(cfg.Breaker)
		}
	}
	return r, nil
}

// Policy returns the routing discipline.
func (r *Router) Policy() Policy { return r.cfg.Policy }

// Len returns the node count.
func (r *Router) Len() int { return len(r.nodes) }

// Routed returns how many submissions were forwarded to node i.
func (r *Router) Routed(i int) uint64 { return r.routed[i] }

// Rerouted returns how many submissions were steered away from their
// policy's first choice because it was down, tripped, or unhealthy.
func (r *Router) Rerouted() uint64 { return r.rerouted }

// Resubmitted returns how many failover resubmissions the router made
// after crashed responses.
func (r *Router) Resubmitted() uint64 { return r.resubmitted }

// AllExcluded returns how many submissions found every node excluded
// and went to the policy's first choice anyway.
func (r *Router) AllExcluded() uint64 { return r.allExcluded }

// BreakerState returns node i's breaker state; ok is false when
// breakers are disabled.
func (r *Router) BreakerState(i int) (state BreakerState, ok bool) {
	if r.breakers == nil {
		return BreakerClosed, false
	}
	return r.breakers[i].state, true
}

// BreakerTrips returns how many times node i's breaker tripped open
// (0 when breakers are disabled).
func (r *Router) BreakerTrips(i int) uint64 {
	if r.breakers == nil {
		return 0
	}
	return r.breakers[i].trips
}

// BreakerTransitions returns node i's breaker transition trail in
// virtual-time order (nil when breakers are disabled). The returned
// slice is the router's own; callers must not mutate it.
func (r *Router) BreakerTransitions(i int) []BreakerTransition {
	if r.breakers == nil {
		return nil
	}
	return r.breakers[i].transitions
}

// taskNow reads the virtual clock; a nil task (unit tests driving the
// router directly) reads as t=0.
func taskNow(t *vtime.Task) time.Duration {
	if t == nil {
		return 0
	}
	return t.Now()
}

// Submit implements workload.Submitter: route one query to a node.
// Must be called from task context; the state it mutates is what makes
// later routing decisions, so calls are strictly ordered by the event
// loop. With FailoverHops > 0, a crashed-class response is resubmitted
// to the next eligible node instead of surfacing immediately — the
// load balancer masking a node loss from the client, one layer below
// the client's own retry/backoff plane.
func (r *Router) Submit(t *vtime.Task, sql string) error {
	i, probe := r.pick(taskNow(t), sql, -1)
	err := r.forward(t, i, probe, sql)
	for hop := 0; hop < r.cfg.FailoverHops; hop++ {
		if err == nil || errclass.Of(err) != errclass.Crashed {
			return err
		}
		// Re-pick at the post-attempt clock, avoiding the node that just
		// failed; when the fleet has nowhere else to offer, stop masking
		// and let the client's retry loop take over.
		j, probe := r.pick(taskNow(t), sql, i)
		if j == i {
			return err
		}
		r.resubmitted++
		i = j
		err = r.forward(t, i, probe, sql)
	}
	return err
}

// forward sends one submission to node i and feeds the outcome to the
// node's breaker.
func (r *Router) forward(t *vtime.Task, i int, probe bool, sql string) error {
	r.routed[i]++
	err := r.nodes[i].Submit(t, sql)
	if r.breakers != nil {
		r.breakers[i].observe(taskNow(t), err, probe)
	}
	return err
}

// eligible reports whether node i may take a submission at virtual
// time now: not crashed (or breaker admitting), and inside the health
// envelope.
func (r *Router) eligible(now time.Duration, i int) bool {
	n := r.nodes[i]
	if r.breakers != nil {
		// With breakers armed the router gives up its liveness oracle: a
		// down node is discovered by its fail-fast crashed responses
		// tripping the breaker, and re-admitted through half-open probes
		// after restart — the router only knows what its own traffic has
		// taught it.
		if !r.breakers[i].canAdmit(now) {
			return false
		}
	} else if n.Down() {
		return false
	}
	if h := r.cfg.Health; h.Enabled {
		if n.OvercommitRatio() > h.maxOvercommit() {
			return false
		}
		if n.ThrashScore() > h.maxThrash() {
			return false
		}
		if h.ShedBrownout && n.BrownedOut() {
			return false
		}
	}
	return true
}

// pick selects the target node index under the policy at virtual time
// now, skipping avoid (the node a failover hop just watched crash;
// -1 for the first attempt), and commits the choice against the
// node's breaker. probe reports whether the submission is a half-open
// breaker probe.
func (r *Router) pick(now time.Duration, sql string, avoid int) (i int, probe bool) {
	switch r.cfg.Policy {
	case LeastLoaded:
		i = r.pickLeastLoaded(now, avoid)
	case Affinity:
		home := int(sqlparser.Hash64(sqlparser.Fingerprint(sql)) % uint64(len(r.nodes)))
		i = r.eligibleFrom(now, home, avoid)
	default: // RoundRobin
		i = r.eligibleFrom(now, r.next, avoid)
		r.next = (i + 1) % len(r.nodes)
	}
	if r.breakers != nil {
		probe = r.breakers[i].admit(now)
	}
	return i, probe
}

// eligibleFrom returns the first eligible node at or after start
// (wrapping), or start itself when the whole fleet is excluded — the
// policy's first choice takes the doomed submission and its error
// flows back to the client.
func (r *Router) eligibleFrom(now time.Duration, start, avoid int) int {
	n := len(r.nodes)
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if i == avoid || !r.eligible(now, i) {
			continue
		}
		if k > 0 {
			r.rerouted++
		}
		return i
	}
	r.allExcluded++
	return start
}

// pickLeastLoaded returns the eligible node with the fewest active
// compilations, lowest index on ties. With the whole fleet excluded it
// falls back to the policy's first choice — the same argmin ignoring
// eligibility — matching the fallback contract of the other policies
// (it used to default to node 0, silently diverging from them).
func (r *Router) pickLeastLoaded(now time.Duration, avoid int) int {
	best, bestLoad := -1, 0
	for i, node := range r.nodes {
		if i == avoid || !r.eligible(now, i) {
			continue
		}
		if load := node.ActiveCompiles(); best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best >= 0 {
		return best
	}
	r.allExcluded++
	for i, node := range r.nodes {
		if load := node.ActiveCompiles(); best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// Report renders the routing distribution for diagnostics.
func (r *Router) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "router policy=%s nodes=%d rerouted=%d", r.cfg.Policy, len(r.nodes), r.rerouted)
	if r.breakers != nil || r.cfg.FailoverHops > 0 || r.cfg.Health.Enabled {
		fmt.Fprintf(&sb, " resubmitted=%d all-excluded=%d", r.resubmitted, r.allExcluded)
	}
	sb.WriteString("\n")
	for i, n := range r.routed {
		fmt.Fprintf(&sb, "  node %d: routed=%d", i, n)
		if r.breakers != nil {
			b := r.breakers[i]
			fmt.Fprintf(&sb, " breaker=%s trips=%d", b.state, b.trips)
			if b.dropped > 0 {
				fmt.Fprintf(&sb, " transitions-dropped=%d", b.dropped)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
