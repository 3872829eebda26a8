// Command perfbench is the repository benchmark. It runs one named
// workload, a registry scenario simulated in virtual time, repeatedly in
// one process and reports host-side cost (wall time, allocation, peak
// memory, set-up time) next to the modelled results the paper's claim
// rests on, after checking those results against the pinned goldens.
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints per-layer metrics instead: a CPU and allocation profile folded
// by internal package, spans around direct calls into the parser, plan
// cache and optimizer, and the modelled counters of every pass. The last
// line of standard output is one JSON object with every metric.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload dss-throttle --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"compilegate/internal/harness"
)

const (
	// setupSamples is how many cold set-ups one run measures: the run's
	// own plus setupSamples-1 in child processes, each a fresh process
	// so its caches and pools start empty.
	setupSamples = 5
	// minRounds is the fewest timed rounds a run median is taken over;
	// two also give every derived seed a second pass to check
	// determinism against.
	minRounds = 2
	// allocSampleRate is the allocation profile's sampling interval in
	// traced runs, finer than the runtime default of 512 KiB.
	allocSampleRate = 16 << 10
	// maxProcs caps GOMAXPROCS: each simulation runs on one goroutine,
	// so a second processor only absorbs garbage collection.
	maxProcs = 2
)

const mib = 1 << 20

type metric struct {
	name  string
	value float64
	unit  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: dss-throttle, oltp-fleet or mixed-nodeloss")
	seed := flag.Int64("seed", goldenSeed, "workload seed; only the default is compared with the golden digests")
	seconds := flag.Int("seconds", 10, "how long the timed passes run")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs the traced pass and prints per-layer metrics")
	setupProbe := flag.Bool("setup-probe", false, "measure one cold set-up, print its seconds and exit")
	flag.Parse()

	if *trace == 1 {
		// Set before anything allocates, as the runtime asks.
		runtime.MemProfileRate = allocSampleRate
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("--seconds must be at least 1, got %d", *seconds))
	}
	w, err := findWorkload(*name)
	if err != nil {
		return fail(err)
	}
	golden, err := readGolden()
	if err != nil {
		return fail(fmt.Errorf("golden digests: %w", err))
	}
	r, err := newRunner(w, *seed)
	if err != nil {
		return fail(err)
	}
	if *setupProbe {
		d, err := r.setup()
		if err != nil {
			return fail(err)
		}
		fmt.Println(d.Seconds())
		return 0
	}

	dur := time.Duration(*seconds) * time.Second
	var metrics []metric
	if *trace == 0 {
		metrics, err = endToEnd(r, *seed, dur)
	} else {
		metrics, err = perLayer(r, dur, fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", w.name, *seed))
	}
	if err != nil {
		// A harness error or post-run invariant violation: no result.
		return fail(err)
	}
	if *seed == goldenSeed {
		r.checkGolden(golden)
	}
	r.checkClaim()

	out := report{Attempted: r.passes, Failed: min(len(r.errs), r.passes), Metrics: map[string]jsonMetric{}}
	out.Correct = out.Failed == 0
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fail(fmt.Errorf("metric %s is %v", m.name, m.value))
		}
		fmt.Printf("%s %-34s %14.6g %s\n", w.name, m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// endToEnd measures set-up, then timed rounds of passes, and returns the
// metrics a user of the simulator sees.
func endToEnd(r *runner, seed int64, dur time.Duration) ([]metric, error) {
	var setups []float64
	for i := 1; i < setupSamples; i++ {
		s, err := probeSetup(r.w.name, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	own, err := r.setup()
	if err != nil {
		return nil, err
	}
	setups = append(setups, own.Seconds())

	timed, err := timeRounds(r, minRounds, dur)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds of %d passes\n", timed.rounds, r.w.subSeeds)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	k := float64(r.w.subSeeds)

	var qph float64
	var ok, submitted int
	for _, p := range r.last {
		qph += p.run.Throughput()
		ok += p.run.Load.Succeeded
		submitted += p.run.Load.Submitted
	}
	return []metric{
		{"run_s", perPass(timed.wall), "s"},
		{"setup_s", median(setups), "s"},
		{"alloc_mb", perPass(timed.alloc) / mib, "MiB"},
		// Linux reports the peak resident set in KiB.
		{"peak_rss_mb", float64(ru.Maxrss) / 1024, "MiB"},
		{"model_qph", qph / k, "1/h"},
		{"model_ok_share", float64(ok) / float64(submitted), "share"},
	}, nil
}

// samples holds one phase's per-pass measurements, indexed by derived
// seed, then by round.
type samples struct {
	rounds      int
	wall, alloc [][]float64
}

// perPass is the per-pass cost over a round: each derived seed's median
// over rounds, averaged over the seeds. Host speed drifts by 10-20%
// over seconds on a shared machine; the per-seed median drops the
// passes a slow spell hit without mixing cheap and costly seeds.
func perPass(x [][]float64) float64 {
	var sum float64
	for _, xs := range x {
		sum += median(xs)
	}
	return sum / float64(len(x))
}

// timeRounds runs at least n rounds of passes, and more while another
// round still fits in dur, timing each pass and counting the bytes it
// allocates.
func timeRounds(r *runner, n int, dur time.Duration) (samples, error) {
	s := samples{wall: make([][]float64, r.w.subSeeds), alloc: make([][]float64, r.w.subSeeds)}
	var ms runtime.MemStats
	start := time.Now()
	fits := func() bool {
		elapsed := time.Since(start)
		return elapsed+elapsed/time.Duration(s.rounds) <= dur
	}
	for ; s.rounds < n || fits(); s.rounds++ {
		for k := range s.wall {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			t0 := time.Now()
			if err := r.runPass(k); err != nil {
				return s, err
			}
			s.wall[k] = append(s.wall[k], time.Since(t0).Seconds())
			runtime.ReadMemStats(&ms)
			s.alloc[k] = append(s.alloc[k], float64(ms.TotalAlloc-before))
		}
	}
	return s, nil
}

// probeSetup measures one cold set-up in a child process.
func probeSetup(workload string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--setup-probe")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up probe output %q: %w", out, err)
	}
	return s, nil
}

// perLayer runs untraced rounds, then rounds under the profilers, then
// the statement replay, and returns the per-layer metrics.
func perLayer(r *runner, dur time.Duration, spansPath string) ([]metric, error) {
	if _, err := r.setup(); err != nil {
		return nil, err
	}
	plain, err := timeRounds(r, 1, dur*3/10)
	if err != nil {
		return nil, err
	}
	modelled := modelCounters(r)

	before := takeAllocSnapshot()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced, err := timeRounds(r, 1, dur/2)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	after := takeAllocSnapshot()
	cpuBy, err := foldCPU(cpu.Bytes())
	if err != nil {
		return nil, err
	}
	cpuShare := shares(cpuBy)
	allocShare := shares(foldAllocs(before, after, allocSampleRate))

	var out []metric
	for _, l := range layers {
		out = append(out, metric{l + ".cpu_share", cpuShare[l], "share"})
	}
	out = append(out,
		metric{bucketOther + ".cpu_share", cpuShare[bucketOther], "share"},
		metric{bucketGC + ".cpu_share", cpuShare[bucketGC], "share"})
	for _, l := range layers {
		out = append(out, metric{l + ".alloc_share", allocShare[l], "share"})
	}
	// Every allocation has a caller, so allocations no repository frame
	// claims are the runtime's own and count as other.
	out = append(out, metric{bucketOther + ".alloc_share", allocShare[bucketOther] + allocShare[bucketGC], "share"})

	var events float64
	for _, p := range r.last {
		events += float64(p.run.SimEvents)
		if p.base != nil {
			events += float64(p.base.SimEvents)
		}
	}
	events /= float64(r.w.subSeeds)
	passSeconds := perPass(plain.wall)
	out = append(out,
		metric{"vtime.events", events, "count"},
		metric{"vtime.ns_per_event", passSeconds * 1e9 / events, "ns"})

	tr, st, err := replay(r.arms[0][0], r.snap, r.w.replay)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(tr.spans), spansPath)
	self := selfByName(tr.spans)
	opt := self["optimizer.optimize"]
	q, label := tailQuantile(len(opt))
	fmt.Fprintf(os.Stderr, "perfbench: optimizer.optimize_p99_ns is the %s of %d compiles\n", label, len(opt))
	compiles := float64(max(st.compiles, 1))
	out = append(out,
		metric{"sqlparser.parse_ns", median(self["sqlparser.parse"]), "ns"},
		metric{"sqlparser.fingerprint_ns", median(self["sqlparser.fingerprint"]), "ns"},
		metric{"plancache.get_ns", median(self["plancache.get"]), "ns"},
		metric{"plancache.put_ns", median(self["plancache.put"]), "ns"},
		metric{"plancache.replay_hit_ratio", float64(st.hits) / float64(st.hits+st.misses), "share"},
		metric{"optimizer.optimize_ns", median(opt), "ns"},
		metric{"optimizer.optimize_p99_ns", quantile(opt, q), "ns"},
		metric{"optimizer.charge_mib_per_compile", float64(st.chargedBytes) / mib / compiles, "MiB"},
		metric{"optimizer.work_per_compile", float64(st.optimizerWork) / compiles, "count"},
		metric{"bench.replay_self_ns", median(self["replay.statement"]), "ns"},
	)
	out = append(out, modelled...)
	out = append(out, metric{"bench.trace_overhead", perPass(traced.wall) / passSeconds, "ratio"})
	return out, nil
}

// counters are the modelled per-layer counters read from each pass's
// throttled-arm result.
var counters = []struct {
	name, unit string
	of         func(*harness.Result) float64
}{
	{"gateway.timeouts", "count", func(r *harness.Result) float64 { return float64(r.GatewayTimeouts) }},
	{"core.best_effort_plans", "count", func(r *harness.Result) float64 { return float64(r.BestEffortPlans) }},
	{"core.brownout_ticks", "count", func(r *harness.Result) float64 { return float64(r.BrownoutTicks) }},
	{"core.avg_active_compiles", "count", func(r *harness.Result) float64 { return r.AvgActiveCompiles }},
	{"mem.overcommit_ratio", "ratio", func(r *harness.Result) float64 { return r.AvgOvercommitRatio }},
	{"mem.page_steal_mb", "MiB", func(r *harness.Result) float64 { return float64(r.PageStealBytes) / mib }},
	{"engine.compile_p50_s", "sim_s", func(r *harness.Result) float64 { return r.CompileP50.Seconds() }},
	{"engine.compile_p90_s", "sim_s", func(r *harness.Result) float64 { return r.CompileP90.Seconds() }},
	{"engine.exec_p50_s", "sim_s", func(r *harness.Result) float64 { return r.ExecP50.Seconds() }},
	{"plancache.hit_rate", "share", func(r *harness.Result) float64 { return r.PlanCacheHitRate }},
	{"bufferpool.hit_rate", "share", func(r *harness.Result) float64 { return r.BufferPoolHitRate }},
	{"workload.retries", "count", func(r *harness.Result) float64 { return float64(r.Load.Retries) }},
	{"workload.giveups", "count", func(r *harness.Result) float64 { return float64(r.Load.GiveUps) }},
	{"cluster.rerouted", "count", func(r *harness.Result) float64 { return float64(r.Rerouted) }},
	{"cluster.resubmitted", "count", func(r *harness.Result) float64 { return float64(r.Resubmitted) }},
	{"fault.recovery_s", "sim_s", recoverySeconds},
}

// modelCounters averages the counters over the last pass at every
// derived seed, and compares the arms where the workload has a
// baseline: model.baseline_qph and model.throttle_gain are 0 without.
func modelCounters(r *runner) []metric {
	k := float64(len(r.last))
	var out []metric
	for _, c := range counters {
		var sum float64
		for _, p := range r.last {
			sum += c.of(p.run)
		}
		out = append(out, metric{c.name, sum / k, c.unit})
	}
	var baseQPH, completed, baseCompleted float64
	for _, p := range r.last {
		if p.base != nil {
			baseQPH += p.base.Throughput()
			completed += float64(p.run.Completed)
			baseCompleted += float64(p.base.Completed)
		}
	}
	gain := 0.0
	if baseCompleted > 0 {
		gain = completed / baseCompleted
	}
	return append(out,
		metric{"model.baseline_qph", baseQPH / k, "1/h"},
		metric{"model.throttle_gain", gain, "ratio"})
}

// recoverySeconds is the virtual time from the last fault clearing to
// recovered throughput. A run that never recovers counts the whole rest
// of its horizon; a run without faults counts 0.
func recoverySeconds(res *harness.Result) float64 {
	f := res.Options.Fault
	if f == nil || f.Empty() {
		return 0
	}
	if res.Recovered {
		return res.RecoveryTime.Seconds()
	}
	return (res.Options.Horizon - f.LastClear()).Seconds()
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile picks the highest of p99, p90 and the median that has at
// least ten samples beyond it.
func tailQuantile(n int) (float64, string) {
	switch {
	case n >= 1000:
		return 0.99, "p99"
	case n >= 100:
		return 0.9, "p90"
	}
	return 0.5, "median"
}
