// figures regenerates every figure dataset from the paper: the monitor
// ladder (Fig. 1), a compilation-throttling trace (Fig. 2), and the
// throttled-vs-baseline throughput series at 30/35/40 clients
// (Figs. 3-5), plus the headline numbers quoted in the text.
//
// Experiments resolve from the scenario registry, and every
// throttled/baseline pair runs concurrently through the sweep runner —
// `-figure all` executes all six throughput runs in parallel on real
// cores.
//
// Usage:
//
//	figures [-quick] [-figure all|1|2|3|4|5] [-workers N]
//	figures -list
//	figures -scenario oltp-mix
//	figures -faultplan [-scenario fault-leak]
//
// -quick shrinks the simulation window so a full regeneration finishes in
// well under a minute of wall-clock time.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"compilegate"
	"compilegate/internal/profiling"
)

func main() {
	quick := flag.Bool("quick", false, "short simulation window")
	fig := flag.String("figure", "all", "which figure to regenerate")
	scen := flag.String("scenario", "", "run one registered scenario (with its baseline) instead of a figure")
	list := flag.Bool("list", false, "list registered scenarios and exit")
	faultplan := flag.Bool("faultplan", false, "print the injected fault schedule of -scenario (or of every fault scenario) and exit")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = all cores)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this path on exit")
	flag.Parse()

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	defer stop()

	if *list {
		fmt.Print(compilegate.ListScenarios())
		return
	}
	if *faultplan {
		if *scen != "" {
			s, ok := compilegate.ScenarioByName(*scen)
			if !ok {
				fmt.Fprintf(os.Stderr, "figures: unknown scenario %q; -list shows the registry\n", *scen)
				os.Exit(2)
			}
			if s.Fault.Empty() {
				fmt.Fprintf(os.Stderr, "figures: scenario %q injects no faults\n", *scen)
				os.Exit(2)
			}
			fmt.Printf("== %s ==\n%s", s.Name, s.Fault.String())
			return
		}
		for _, s := range compilegate.Scenarios() {
			if !s.Fault.Empty() {
				fmt.Printf("== %s ==\n%s", s.Name, s.Fault.String())
			}
		}
		return
	}
	if *scen != "" {
		s, ok := compilegate.ScenarioByName(*scen)
		if !ok {
			fmt.Fprintf(os.Stderr, "figures: unknown scenario %q; -list shows the registry\n", *scen)
			os.Exit(2)
		}
		fmt.Printf("== Scenario %s: %s ==\n", s.Name, s.Description)
		if !s.Fault.Empty() {
			fmt.Printf("  fault plan:\n%s", indent(s.Fault.String(), "  "))
		}
		renderPair(runPair(shrink(s, *quick), *workers))
		return
	}

	switch *fig {
	case "1":
		figure1()
	case "2":
		figure2()
	case "3", "4", "5":
		n := int((*fig)[0] - '0')
		s := figureScenario(n, *quick)
		fmt.Printf("== Figure %d: throughput, %d clients ==\n", n, s.Clients)
		renderPair(runPair(s, *workers))
	case "all":
		figure1()
		figure2()
		// All three throughput figures — six independent simulations —
		// sweep concurrently.
		var scenarios []compilegate.Scenario
		for n := 3; n <= 5; n++ {
			s := figureScenario(n, *quick)
			scenarios = append(scenarios, s, s.Baseline())
		}
		results := compilegate.RunSweep(scenarios, *workers)
		for i := 0; i < len(results); i += 2 {
			s := results[i].Scenario
			fmt.Printf("== Figure %d: throughput, %d clients ==\n", 3+i/2, s.Clients)
			renderPair([2]compilegate.SweepResult{results[i], results[i+1]})
		}
	default:
		fmt.Fprintln(os.Stderr, "figures: unknown -figure", *fig)
		os.Exit(2)
	}
}

// figureScenario resolves one throughput figure from the registry.
func figureScenario(n int, quick bool) compilegate.Scenario {
	name := fmt.Sprintf("figure%d", n)
	s, ok := compilegate.ScenarioByName(name)
	if !ok {
		panic("figures: " + name + " not registered")
	}
	return shrink(s, quick)
}

func shrink(s compilegate.Scenario, quick bool) compilegate.Scenario {
	if quick && s.Horizon > 2*time.Hour {
		return s.WithWindow(2*time.Hour, 30*time.Minute)
	}
	return s
}

// runPair executes a scenario and its unthrottled baseline concurrently.
func runPair(s compilegate.Scenario, workers int) [2]compilegate.SweepResult {
	res := compilegate.RunSweep([]compilegate.Scenario{s, s.Baseline()}, workers)
	return [2]compilegate.SweepResult{res[0], res[1]}
}

// renderPair prints the throttled and baseline series side by side.
func renderPair(pair [2]compilegate.SweepResult) {
	for _, sr := range pair {
		if sr.Err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", sr.Scenario.Name, sr.Err)
			os.Exit(1)
		}
	}
	th, ba := pair[0].Result, pair[1].Result
	fmt.Println("  time      throttled  non-throttled")
	for i := range th.Series {
		b := int64(0)
		if i < len(ba.Series) {
			b = ba.Series[i].V
		}
		fmt.Printf("  %6.0fs  %9d  %13d\n", th.Series[i].T.Seconds(), th.Series[i].V, b)
	}
	ratio, summary := compilegate.CompareRuns(th, ba)
	fmt.Printf("  ratio: %.2fx — %s\n\n", ratio, summary)
	renderNodes(th)
}

// renderNodes prints the per-node breakdown of a multi-node run (no
// output for 1-node runs, whose one entry repeats the totals): the
// routing distribution, the router's health actions (rerouted /
// failover / all-excluded counters), and — when breakers are armed —
// each node's final breaker state, trip count, and state-transition
// trail in virtual-time order.
func renderNodes(r *compilegate.BenchmarkResult) {
	if len(r.NodeResults) < 2 {
		return
	}
	breakers := r.NodeResults[0].BreakerState != ""
	fmt.Printf("  per-node breakdown (%s router, rerouted=%d", r.Options.Router, r.Rerouted)
	if breakers || r.Options.FailoverHops > 0 {
		fmt.Printf(" resubmitted=%d all-excluded=%d", r.Resubmitted, r.RouterAllExcluded)
	}
	fmt.Println("):")
	fmt.Print("  node     routed  completed  errors  plan-hit  crashes")
	if breakers {
		fmt.Print("    breaker  trips")
	}
	fmt.Println()
	for _, nr := range r.NodeResults {
		fmt.Printf("  %4d  %9d  %9d  %6d  %8.4f  %7d",
			nr.Node, nr.Routed, nr.Completed, nr.Errors, nr.PlanCacheHitRate, nr.Crashes)
		if breakers {
			fmt.Printf("  %9s  %5d", nr.BreakerState, nr.BreakerTrips)
		}
		fmt.Println()
	}
	for _, nr := range r.NodeResults {
		if len(nr.BreakerTransitions) == 0 {
			continue
		}
		fmt.Printf("  node %d breaker transitions:\n", nr.Node)
		for _, tr := range nr.BreakerTransitions {
			fmt.Printf("    %s\n", tr)
		}
	}
	fmt.Println()
}

// indent prefixes every non-empty line of s.
func indent(s, prefix string) string {
	var sb strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		sb.WriteString(prefix)
		sb.WriteString(line)
		sb.WriteString("\n")
	}
	return sb.String()
}

// figure1 prints the monitor ladder (thresholds ascending, concurrency
// descending) — the content of the paper's Figure 1.
func figure1() {
	fmt.Println("== Figure 1: memory monitors ==")
	chain, err := compilegate.NewGatewayChain(compilegate.DefaultGatewayConfig(8, 4*compilegate.GiB))
	if err != nil {
		panic(err)
	}
	fmt.Print(chain.String())
	fmt.Println()
}

// figure2 reproduces the throttling example trace with the governance
// primitives directly: staggered compilations whose memory curves
// flatten while blocked at monitors. (The registry's "figure2" scenario
// runs the same conditions through the full engine.)
func figure2() {
	fmt.Println("== Figure 2: compilation throttling example ==")
	sched := compilegate.NewScheduler()
	budget := compilegate.NewBudget(1 * compilegate.GiB)
	opts := compilegate.DefaultGovernorOptions(2, budget.Total())
	gov, err := compilegate.NewGovernor(opts, budget.NewTracker("compile"))
	if err != nil {
		panic(err)
	}
	type samp struct {
		t time.Duration
		v [3]int64
	}
	var series []samp
	cur := [3]int64{}
	peaks := []int64{420 * compilegate.MiB, 300 * compilegate.MiB, 280 * compilegate.MiB}
	rates := []time.Duration{time.Second, 2 * time.Second, 2 * time.Second}
	for i := range peaks {
		i := i
		sched.Go(fmt.Sprintf("Q%d", i+1), func(t *compilegate.Task) {
			t.Sleep(time.Duration(i) * 5 * time.Second)
			c := gov.Begin(t, fmt.Sprintf("Q%d", i+1))
			for c.Used() < peaks[i] {
				if err := c.Alloc(10 * compilegate.MiB); err != nil {
					break
				}
				cur[i] = c.Used()
				t.Sleep(rates[i])
			}
			c.Finish()
			cur[i] = 0
		})
	}
	sched.Go("sampler", func(t *compilegate.Task) {
		for t.Now() < 4*time.Minute {
			series = append(series, samp{t.Now(), cur})
			t.Sleep(5 * time.Second)
		}
	})
	if err := sched.Run(); err != nil {
		panic(err)
	}
	fmt.Println("  time      Q1(MiB)  Q2(MiB)  Q3(MiB)")
	for _, s := range series {
		fmt.Printf("  %7v  %7d  %7d  %7d\n", s.t,
			s.v[0]/compilegate.MiB, s.v[1]/compilegate.MiB, s.v[2]/compilegate.MiB)
	}
	fmt.Println()
}
