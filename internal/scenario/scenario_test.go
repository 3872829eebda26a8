package scenario

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"compilegate/internal/cluster"
	"compilegate/internal/engine"
	"compilegate/internal/fault"
	"compilegate/internal/harness"
	"compilegate/internal/vtime"
)

// TestRegisteredScenariosBuildValidConfigs proves every registered
// experiment resolves to a runnable configuration: the scenario
// validates, its options carry the declared fields, and the resulting
// engine config assembles a real server over the resolved catalog.
func TestRegisteredScenariosBuildValidConfigs(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("registry holds %d scenarios, expected the full paper set", len(all))
	}
	for _, s := range all {
		t.Run(s.Name, func(t *testing.T) {
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			o := s.Options()
			if o.Clients != s.Clients || o.Scale != s.Scale || o.Workload != s.Workload ||
				o.Horizon != s.Horizon || o.Warmup != s.Warmup ||
				o.Throttled != s.Throttled || o.Seed != s.Seed {
				t.Fatalf("options %+v do not mirror scenario %+v", o, s)
			}
			if (o.Engine != nil) != (s.Engine != nil) {
				t.Fatal("engine delta not applied")
			}
			ecfg := engine.DefaultConfig()
			if o.Engine != nil {
				ecfg = *o.Engine
			}
			ecfg.Throttle = o.Throttled
			cat := o.Workload.NewCatalog(o.Scale, ecfg.BufferPool.ExtentBytes)
			if _, err := engine.New(ecfg, cat, vtime.NewScheduler()); err != nil {
				t.Fatalf("engine rejects the scenario's config: %v", err)
			}
		})
	}
}

func TestValidateRejectsBrokenScenarios(t *testing.T) {
	good := Sales(4)
	good.Name = "ok"
	cases := map[string]func(*Scenario){
		"no-name":         func(s *Scenario) { s.Name = "" },
		"no-clients":      func(s *Scenario) { s.Clients = 0 },
		"no-scale":        func(s *Scenario) { s.Scale = 0 },
		"bad-workload":    func(s *Scenario) { s.Workload = "tpcds" },
		"warmup>=horizon": func(s *Scenario) { s.Warmup = s.Horizon },
		"bad-router":      func(s *Scenario) { s.Router = "bogus" },
		"health-1-node":   func(s *Scenario) { s.Health = &cluster.HealthConfig{Enabled: true} },
		"negative-hops":   func(s *Scenario) { s.FailoverHops = -1 },
		"fault-off-fleet": func(s *Scenario) {
			s.Fault = &fault.Plan{Injections: []fault.Injection{
				{Kind: fault.CrashRestart, Node: 1, At: time.Minute, Duration: time.Minute},
			}}
		},
		"fault-past-horizon": func(s *Scenario) {
			s.Fault = &fault.Plan{Injections: []fault.Injection{
				{Kind: fault.CrashRestart, At: s.Horizon - time.Minute, Duration: 2 * time.Minute},
			}}
		},
	}
	for name, breakIt := range cases {
		s := good
		breakIt(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: broken scenario validated", name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryRejectsDuplicatesAndSortsNames(t *testing.T) {
	r := NewRegistry()
	a, b := Sales(4), Sales(5)
	a.Name, b.Name = "b", "a" // registered out of name order on purpose
	if err := r.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(b); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(a); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	// Iteration is sorted by name regardless of registration order, so
	// -list output and docs snippets stay stable.
	if names := r.Names(); !reflect.DeepEqual(names, []string{"a", "b"}) {
		t.Fatalf("names = %v", names)
	}
	if all := r.Scenarios(); len(all) != 2 || all[0].Name != "a" || all[1].Name != "b" {
		t.Fatalf("scenarios not sorted: %v, %v", all[0].Name, all[1].Name)
	}
	if _, ok := r.Get("a"); !ok {
		t.Fatal("registered scenario not found")
	}
	if _, ok := r.Get("zzz"); ok {
		t.Fatal("unknown scenario found")
	}
	if list := r.List(); !strings.Contains(list, "a") || !strings.Contains(list, "b") {
		t.Fatalf("list = %q", list)
	}
}

func TestDerivations(t *testing.T) {
	s := Sales(30)
	ba := s.Baseline()
	if ba.Throttled || !s.Throttled {
		t.Fatal("Baseline must flip throttling on the copy only")
	}
	if ba.Name != s.Name+"-baseline" {
		t.Fatalf("baseline name = %q", ba.Name)
	}
	w := s.WithWindow(time.Hour, time.Minute)
	if w.Horizon != time.Hour || w.Warmup != time.Minute || s.Horizon != 8*time.Hour {
		t.Fatal("WithWindow must replace the window on the copy only")
	}
	if s.WithSeed(9).Seed != 9 || s.WithClients(7).Clients != 7 {
		t.Fatal("WithSeed/WithClients broken")
	}
}

// sweepSet is a cheap, heterogeneous set of registered scenarios used by
// the determinism tests: two as registered, two with a compressed
// window so the suite stays fast.
func sweepSet(t *testing.T) []Scenario {
	t.Helper()
	var out []Scenario
	for _, name := range []string{"quickstart", "figure2", "oltp-mix", "adhoc-dss", "cluster-roundrobin"} {
		s, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %s not registered", name)
		}
		if s.Horizon > 30*time.Minute {
			s = s.WithWindow(20*time.Minute, 5*time.Minute)
		}
		out = append(out, s)
	}
	return out
}

// TestSweepMatchesSerial is the determinism guarantee: a parallel sweep
// over independent scenarios returns results identical to running each
// scenario serially — same measurements, same rendered reports.
func TestSweepMatchesSerial(t *testing.T) {
	scenarios := sweepSet(t)
	serial := make([]*harness.Result, len(scenarios))
	for i, s := range scenarios {
		r, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		serial[i] = r
	}

	parallel := RunSweep(scenarios, len(scenarios))
	if len(parallel) != len(scenarios) {
		t.Fatalf("sweep returned %d results", len(parallel))
	}
	for i, sr := range parallel {
		if sr.Err != nil {
			t.Fatalf("%s: %v", sr.Scenario.Name, sr.Err)
		}
		if sr.Scenario.Name != scenarios[i].Name {
			t.Fatalf("result %d out of order: %s", i, sr.Scenario.Name)
		}
		if sr.Result.Completed == 0 {
			t.Fatalf("%s completed nothing", sr.Scenario.Name)
		}
		if sr.Result.Report != serial[i].Report {
			t.Errorf("%s: parallel report diverges from serial:\n%s\nvs\n%s",
				sr.Scenario.Name, sr.Result.Report, serial[i].Report)
		}
		if !reflect.DeepEqual(sr.Result, serial[i]) {
			t.Errorf("%s: parallel result differs from serial run", sr.Scenario.Name)
		}
	}
}

// TestSweepWorkerCountInvariance is the full-registry determinism
// guard: running every registered scenario through RunSweep with
// workers=1 and with workers=N must produce byte-identical results —
// same measurements, same rendered reports — because each run owns a
// private scheduler and shares no mutable state. It extends the
// four-scenario serial-vs-parallel probe (TestSweepMatchesSerial)
// across the whole registry, guarding scheduler determinism under the
// staged compile-memory model.
//
// A third pass re-runs every scenario with a private, freshly built
// snapshot instead of the process-wide shared one, proving the shared
// immutable run state (catalog, estimator, layout, statement
// identities) changes nothing: sharing is purely a setup-cost
// optimization.
func TestSweepWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	all := All()
	scenarios := make([]Scenario, len(all))
	for i, s := range all {
		scenarios[i] = goldenWindow(s)
	}
	// Replication pass: a multi-seed replication is sweep jobs underneath,
	// so its per-seed results must also be identical at any worker count.
	repScenario := goldenWindow(MustGet(t, "figure3"))
	repOne, err := Replication{Scenario: repScenario, Seeds: Seeds(3), Paired: true, Workers: 1}.Run()
	if err != nil {
		t.Fatal(err)
	}
	repMany, err := Replication{Scenario: repScenario, Seeds: Seeds(3), Paired: true, Workers: 0}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range repOne.Runs {
		if !reflect.DeepEqual(repOne.Runs[i], repMany.Runs[i]) {
			t.Errorf("replication seed %d differs between workers=1 and workers=N", repOne.Runs[i].Seed)
		}
	}
	// Cluster pass: the affinity fleet's per-seed results must be
	// worker-count invariant as well; cluster-thrash-shed re-proves it
	// with health exclusion, breakers, and failover all armed.
	for _, name := range []string{"cluster-affinity", "cluster-thrash-shed"} {
		clOne, err := Replication{Scenario: MustGet(t, name), Seeds: Seeds(2), Workers: 1}.Run()
		if err != nil {
			t.Fatal(err)
		}
		clMany, err := Replication{Scenario: MustGet(t, name), Seeds: Seeds(2), Workers: 0}.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := range clOne.Runs {
			if !reflect.DeepEqual(clOne.Runs[i], clMany.Runs[i]) {
				t.Errorf("%s replication seed %d differs between workers=1 and workers=N", name, clOne.Runs[i].Seed)
			}
		}
	}

	one := RunSweep(scenarios, 1)
	many := RunSweep(scenarios, 0)
	for i := range scenarios {
		name := scenarios[i].Name
		if one[i].Err != nil || many[i].Err != nil {
			t.Fatalf("%s: errs %v vs %v", name, one[i].Err, many[i].Err)
		}
		if one[i].Result.Report != many[i].Result.Report {
			t.Errorf("%s: report diverges between workers=1 and workers=N:\n%s\nvs\n%s",
				name, one[i].Result.Report, many[i].Result.Report)
			continue
		}
		if !reflect.DeepEqual(one[i].Result, many[i].Result) {
			t.Errorf("%s: results differ between workers=1 and workers=N", name)
		}
	}

	// Shared-snapshot path: private snapshots must reproduce the shared
	// ones bit for bit.
	fresh := make([]*harness.Result, len(scenarios))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, s := range scenarios {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			o := s.Options()
			o.Snapshot = harness.NewSnapshot(o.Workload, o.Scale)
			r, err := harness.Run(o)
			if err != nil {
				t.Errorf("%s: fresh-snapshot run: %v", s.Name, err)
				return
			}
			fresh[i] = r
		}()
	}
	wg.Wait()
	for i := range scenarios {
		if fresh[i] == nil {
			continue
		}
		// The Options differ by the Snapshot pointer itself; blank it
		// before the deep comparison of the measurements.
		shared := *many[i].Result
		private := *fresh[i]
		shared.Options.Snapshot, private.Options.Snapshot = nil, nil
		if !reflect.DeepEqual(shared, private) {
			t.Errorf("%s: fresh-snapshot result differs from shared-snapshot result",
				scenarios[i].Name)
		}
	}
}

func TestSweepWorkerBounds(t *testing.T) {
	s, _ := Get("quickstart")
	// workers > len, workers = 1, workers <= 0 all behave.
	for _, workers := range []int{8, 1, 0} {
		res := RunSweep([]Scenario{s, s.WithSeed(2)}, workers)
		for _, sr := range res {
			if sr.Err != nil {
				t.Fatal(sr.Err)
			}
		}
		if res[0].Result.Options.Seed == res[1].Result.Options.Seed {
			t.Fatal("results out of order")
		}
	}
	if got := RunSweep(nil, 4); len(got) != 0 {
		t.Fatalf("empty sweep returned %d results", len(got))
	}
}

func TestSweepSurfacesErrors(t *testing.T) {
	bad := Sales(0) // invalid: no clients
	bad.Name = "bad"
	res := RunSweep([]Scenario{bad}, 1)
	if res[0].Err == nil {
		t.Fatal("invalid scenario ran")
	}
}
