package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"compilegate/internal/engine"
	"compilegate/internal/harness"
	"compilegate/internal/mem"
	"compilegate/internal/optimizer"
	"compilegate/internal/plan"
	"compilegate/internal/plancache"
	"compilegate/internal/scenario"
	"compilegate/internal/sqlparser"
)

// span is one timed call into a layer. Times are nanoseconds since the
// replay started; Parent indexes the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (tr *tracer) begin(name string, parent, stmt int) int {
	tr.spans = append(tr.spans, span{Name: name, Start: int64(time.Since(tr.origin)), End: -1, Parent: parent, Stmt: stmt})
	return len(tr.spans) - 1
}

func (tr *tracer) end(i int) { tr.spans[i].End = int64(time.Since(tr.origin)) }

// selfTimes returns each span's duration minus the part of it that its
// child spans cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		covered, reach := int64(0), s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		for _, c := range kids {
			lo, hi := max(spans[c].Start, reach), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// replayStats is what the replay measures besides its spans.
type replayStats struct {
	hits, misses  uint64
	compiles      int
	chargedBytes  int64
	optimizerWork int64
}

// replay draws n statements from the workload's generator at the run
// seed and sends each through the engine's compile path, calling only
// pure functions: fingerprint, parse, plan-cache lookup, and on a miss
// optimize and insert. The optimizer's hooks are the benchmark's own
// counters, so nothing blocks and no virtual time passes.
func replay(s scenario.Scenario, snap *harness.Snapshot, n int) (*tracer, replayStats, error) {
	cfg := engine.DefaultConfig()
	if eo := s.Options().Engine; eo != nil {
		cfg = *eo
	}
	var st replayStats
	opt := optimizer.New(snap.Estimator, cfg.Optimizer)
	hooks := optimizer.Hooks{
		Charge: func(b int64) error { st.chargedBytes += b; return nil },
		Work:   func(tasks int) { st.optimizerWork += int64(tasks) },
	}
	cache := plancache.New(mem.NewBudget(cfg.MemoryBytes).NewTracker("plancache"))
	gen := s.Workload.Generator()
	rng := rand.New(rand.NewSource(s.Seed))
	var q plan.Query

	tr := &tracer{origin: time.Now(), spans: make([]span, 0, 6*n)}
	for i := 0; i < n; i++ {
		sql := gen.Next(rng)
		root := tr.begin("replay.statement", -1, i)
		sp := tr.begin("sqlparser.fingerprint", root, i)
		fp := sqlparser.Fingerprint(sql)
		tr.end(sp)
		sp = tr.begin("sqlparser.parse", root, i)
		err := sqlparser.ParseInto(&q, sql)
		tr.end(sp)
		if err != nil {
			return nil, st, fmt.Errorf("replay statement %d: parse: %w", i, err)
		}
		sp = tr.begin("plancache.get", root, i)
		_, hit := cache.Get(fp)
		tr.end(sp)
		if !hit {
			sp = tr.begin("optimizer.optimize", root, i)
			p, err := opt.Optimize(&q, hooks)
			tr.end(sp)
			if err != nil {
				return nil, st, fmt.Errorf("replay statement %d: optimize: %w", i, err)
			}
			st.compiles++
			sp = tr.begin("plancache.put", root, i)
			cache.Put(fp, p, 0)
			tr.end(sp)
		}
		tr.end(root)
	}
	st.hits, st.misses = cache.Hits(), cache.Misses()
	return tr, st, nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// selfByName groups self times by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[i]))
	}
	return out
}
