package workload

import (
	"math"
	"math/rand"
	"time"

	"compilegate/internal/errclass"
	"compilegate/internal/lazyrand"
	"compilegate/internal/vtime"
)

// Submitter runs one query end to end on behalf of a client task,
// returning the engine's error (compile OOM, gateway timeout, grant
// timeout, ...). The engine's Server implements it.
type Submitter interface {
	Submit(t *vtime.Task, sql string) error
}

// LoadConfig shapes the closed-loop client population (§5.2's custom load
// generator simulating concurrent database users).
type LoadConfig struct {
	// Clients is the number of concurrent users.
	Clients int
	// Horizon: clients stop submitting new queries at this virtual time
	// (in-flight queries run to completion).
	Horizon time.Duration
	// ThinkTime separates a client's queries.
	ThinkTime time.Duration
	// MaxRetries bounds resubmission of a failed query; the paper notes
	// aborted queries "likely need to be resubmitted to the system".
	MaxRetries int
	// RetryBackoff separates retries (the legacy fixed-backoff driver;
	// BackoffBase = 0 selects it).
	RetryBackoff time.Duration
	// Seed makes the run reproducible.
	Seed int64

	// BackoffBase > 0 enables the real-driver retry model: capped
	// exponential backoff (BackoffBase doubling per attempt up to
	// BackoffCap) with deterministic jitter drawn from the client's
	// seeded RNG — sleep ∈ backoff·[1−BackoffJitter, 1+BackoffJitter).
	// The legacy fixed-backoff path draws nothing from the RNG, so
	// existing scenarios reproduce byte-identically.
	BackoffBase   time.Duration
	BackoffCap    time.Duration
	BackoffJitter float64
	// RetryBudget bounds the total retries one client may spend over the
	// whole run (0 = unbounded). A client with an empty budget gives up
	// on first failure — the well-behaved-driver half of the retry-storm
	// comparison.
	RetryBudget int
	// NoRetryShed stops clients from resubmitting deliberately shed work
	// (errclass.Shed, i.e. gateway timeouts): the server said no on
	// purpose, so a cooperating driver fails the query to the user
	// instead of amplifying the overload.
	NoRetryShed bool
}

// DefaultLoadConfig mirrors the paper's setup at the given client count.
func DefaultLoadConfig(clients int) LoadConfig {
	return LoadConfig{
		Clients:      clients,
		Horizon:      2 * time.Hour,
		ThinkTime:    2 * time.Second,
		MaxRetries:   2,
		RetryBackoff: 5 * time.Second,
		Seed:         1,
	}
}

// LoadStats aggregates client-side counters.
type LoadStats struct {
	Submitted int
	Succeeded int
	Failed    int // failures after exhausting retries
	Retries   int
	// GiveUps counts failures abandoned before MaxRetries: shed work the
	// client chose not to resubmit (NoRetryShed) or retries it could not
	// afford (RetryBudget exhausted). Always a subset of Failed.
	GiveUps int
	// BudgetExhausted counts give-ups forced by an empty retry budget
	// (the rest of GiveUps declined to resubmit shed work).
	BudgetExhausted int
}

// backoffFor returns the sleep before retry number attempt (1-based).
// The legacy fixed path must not touch rng: consuming a draw would shift
// every later query of the client and break golden digests.
func backoffFor(cfg *LoadConfig, rng *rand.Rand, attempt int) time.Duration {
	if cfg.BackoffBase <= 0 {
		return cfg.RetryBackoff
	}
	d := cfg.BackoffBase
	if shift := uint(attempt - 1); shift < 63 && d <= math.MaxInt64>>shift {
		d <<= shift
	} else {
		// The shift would overflow. A wrapped value can come out as a
		// small *positive* duration, so the overflow must be caught
		// before shifting rather than by sign-checking the result; pin
		// to the cap (or the base when uncapped).
		d = cfg.BackoffCap
		if d <= 0 {
			d = cfg.BackoffBase
		}
	}
	if cfg.BackoffCap > 0 && d > cfg.BackoffCap {
		d = cfg.BackoffCap
	}
	if cfg.BackoffJitter > 0 {
		// Deterministic jitter in [1-j, 1+j): de-synchronizes a client
		// herd that failed on the same tick without any shared state.
		f := 1 + cfg.BackoffJitter*(2*rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	return d
}

// Run spawns cfg.Clients client tasks against sub. onAllDone (may be nil)
// fires from the last client to finish — use it to stop engine
// housekeeping. Returns the shared stats structure, filled in as the
// simulation runs.
func Run(sched *vtime.Scheduler, sub Submitter, gen Generator, cfg LoadConfig, onAllDone func()) *LoadStats {
	stats := &LoadStats{}
	remaining := cfg.Clients
	for i := 0; i < cfg.Clients; i++ {
		i := i
		sched.Go("client", func(t *vtime.Task) {
			rng := lazyrand.New(cfg.Seed + int64(i)*7919)
			budget := cfg.RetryBudget
			// Stagger arrival so clients don't align on the same instant.
			t.Sleep(time.Duration(i) * 250 * time.Millisecond)
			for t.Now() < cfg.Horizon {
				sql := gen.Next(rng)
				stats.Submitted++
				err := sub.Submit(t, sql)
				retries := 0
				for err != nil && retries < cfg.MaxRetries && t.Now() < cfg.Horizon {
					if cfg.NoRetryShed && errclass.IsShed(err) {
						stats.GiveUps++
						break
					}
					if cfg.RetryBudget > 0 {
						if budget <= 0 {
							stats.GiveUps++
							stats.BudgetExhausted++
							break
						}
						budget--
					}
					retries++
					stats.Retries++
					t.Sleep(backoffFor(&cfg, rng, retries))
					err = sub.Submit(t, sql)
				}
				if err != nil {
					stats.Failed++
				} else {
					stats.Succeeded++
				}
				t.Sleep(cfg.ThinkTime)
			}
			remaining--
			if remaining == 0 && onAllDone != nil {
				onAllDone()
			}
		})
	}
	return stats
}
