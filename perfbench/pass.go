package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"

	"compilegate/internal/harness"
	"compilegate/internal/scenario"
)

// goldenPath is read at run time, so a change that re-pins the goldens
// carries this benchmark's output check with it.
const goldenPath = "internal/scenario/testdata/golden.txt"

// goldenSeed is the only seed the golden digests are recorded at.
const goldenSeed = 1

// pass is one simulation of a workload at one derived seed: the
// throttled arm, plus the unthrottled twin on workloads that compare.
type pass struct {
	run, base *harness.Result
}

// runner executes passes of one workload on a snapshot built once per
// process, and checks every pass's output against the first pass at the
// same derived seed.
type runner struct {
	w     benchWorkload
	snap  *harness.Snapshot
	arms  [][]scenario.Scenario // per derived seed: throttled arm, then baseline
	first []string              // per derived seed: digest of the first pass
	// last holds the most recent pass at each derived seed.
	last []pass

	passes int
	errs   []string
}

// newRunner resolves the workload's scenarios. Building the snapshot is
// left to setup, which times it.
func newRunner(w benchWorkload, seed int64) (*runner, error) {
	r := &runner{
		w:     w,
		arms:  make([][]scenario.Scenario, w.subSeeds),
		first: make([]string, w.subSeeds),
		last:  make([]pass, w.subSeeds),
	}
	for k := range r.arms {
		s, err := w.resolve(subSeed(seed, k))
		if err != nil {
			return nil, err
		}
		r.arms[k] = []scenario.Scenario{s}
		if w.withBaseline {
			r.arms[k] = append(r.arms[k], s.Baseline())
		}
	}
	return r, nil
}

// setup builds a cold snapshot of the workload's shape and runs the
// discarded warm-up pass that fills the process-wide pools, returning
// the host time both took.
func (r *runner) setup() (time.Duration, error) {
	start := time.Now()
	s := r.arms[0][0]
	r.snap = harness.NewSnapshot(s.Workload, s.Scale)
	if err := r.runPass(0); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// runPass runs every arm at derived seed k and checks the result's
// digest against the first pass at that seed.
func (r *runner) runPass(k int) error {
	r.passes++
	var p pass
	var digests []string
	for i, s := range r.arms[k] {
		o := s.Options()
		o.Snapshot = r.snap
		res, err := harness.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		if i == 0 {
			p.run = res
		} else {
			p.base = res
		}
		digests = append(digests, digest(res))
	}
	d := strings.Join(digests, " | ")
	switch {
	case r.first[k] == "":
		r.first[k] = d
	case r.first[k] != d:
		r.errs = append(r.errs, fmt.Sprintf("seed %d: digest changed between passes:\nfirst: %s\nnow:   %s",
			r.arms[k][0].Seed, r.first[k], d))
	}
	r.last[k] = p
	return nil
}

// digest renders a run in the 9-field format of digest() in
// internal/scenario/golden_test.go.
func digest(r *harness.Result) string {
	return fmt.Sprintf(
		"completed=%d errors=%d compile-p50=%v exec-p50=%v submitted=%d retries=%d gateway-timeouts=%d best-effort=%d overcommit-permille=%d",
		r.Completed, r.Errors, r.CompileP50, r.ExecP50,
		r.Load.Submitted, r.Load.Retries, r.GatewayTimeouts, r.BestEffortPlans,
		int64(r.AvgOvercommitRatio*1000))
}

// checkGolden compares the throttled arm at the run seed with the
// pinned digest of the workload's scenario.
func (r *runner) checkGolden(golden map[string]string) {
	want, ok := golden[r.w.scenario]
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf("%s: no golden digest for scenario %s", goldenPath, r.w.scenario))
		return
	}
	if got := digest(r.last[0].run); got != want {
		r.errs = append(r.errs, fmt.Sprintf("%s diverged from its golden digest:\ngot:  %s\nwant: %s", r.w.scenario, got, want))
	}
}

// checkClaim holds the paper's claim on workloads with a baseline arm:
// pooled over the run's derived seeds, throttling completes more.
func (r *runner) checkClaim() {
	if !r.w.withBaseline {
		return
	}
	var throttled, baseline int64
	for _, p := range r.last {
		throttled += p.run.Completed
		baseline += p.base.Completed
	}
	if throttled <= baseline {
		r.errs = append(r.errs, fmt.Sprintf("throttled arm completed %d, not more than its baseline's %d", throttled, baseline))
	}
}

// readGolden parses the golden file into scenario name -> digest.
func readGolden() (map[string]string, error) {
	f, err := os.Open(goldenPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, rest, ok := strings.Cut(sc.Text(), ": "); ok {
			out[name] = rest
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", goldenPath, err)
	}
	return out, nil
}
