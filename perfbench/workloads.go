package main

import (
	"fmt"
	"time"

	"compilegate/internal/scenario"
)

// benchWorkload is one named benchmark workload: a registry scenario,
// how many derived seeds one round of passes covers, and how long a
// statement stream the traced run replays into the pure layers.
type benchWorkload struct {
	name     string
	scenario string
	// withBaseline makes every pass run the scenario's unthrottled twin
	// after the throttled arm: the paper's comparison.
	withBaseline bool
	// subSeeds is the number of derived seeds per round. One seed's
	// modelled throughput, and the host work of its pass, carry the
	// sampling noise of a short closed-loop run (about 10% between seeds
	// on SALES and on the node-loss mix); a round averages it down so
	// every metric compares across commits. cluster-roundrobin completes
	// the same count at every seed, so two seeds suffice there.
	subSeeds int
	// replay is the statement count the traced run draws from the
	// workload's generator and replays through the parser, plan cache
	// and optimizer.
	replay int
}

// workloads stress different layers: dss-throttle compiles every
// statement (optimizer, memo, u64hash, the gateway ladder), oltp-fleet
// hits the plan cache and runs the per-statement engine path at a
// four-digit client count, and mixed-nodeloss runs both beside the fault
// plane, client retries and router failover. A compile-path change
// should move the first and leave the second alone.
var workloads = []benchWorkload{
	{name: "dss-throttle", scenario: "figure3", withBaseline: true, subSeeds: 16, replay: 1500},
	{name: "oltp-fleet", scenario: "cluster-roundrobin", subSeeds: 2, replay: 20000},
	{name: "mixed-nodeloss", scenario: "cluster-nodeloss", subSeeds: 16, replay: 4000},
}

func findWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// resolve returns the workload's scenario at the given seed. Scenarios
// longer than two hours run the two-hour window measured from 30
// minutes, the same compression the golden digests in
// internal/scenario/testdata/golden.txt are recorded under.
func (w benchWorkload) resolve(seed int64) (scenario.Scenario, error) {
	s, ok := scenario.Get(w.scenario)
	if !ok {
		return scenario.Scenario{}, fmt.Errorf("scenario %q is not registered", w.scenario)
	}
	if s.Horizon > 2*time.Hour {
		s = s.WithWindow(2*time.Hour, 30*time.Minute)
	}
	s = s.WithSeed(seed)
	if err := s.Validate(); err != nil {
		return scenario.Scenario{}, err
	}
	return s, nil
}

// seedStride separates the derived seeds of one run from those of the
// next run seed, so runs at seeds 1..n share no simulation.
const seedStride = 1_000_003

// subSeed returns derived seed k of a run. Seed k = 0 is the run seed
// itself, so the default seed reproduces the pinned golden run.
func subSeed(seed int64, k int) int64 {
	return seed + int64(k)*seedStride
}
