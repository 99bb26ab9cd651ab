// Package market is the harvested-capacity market: customers open
// capacity pools — a reservation of harvested cores with a balance in
// core-seconds, a price per core-second consumed, and an eviction-SLA
// tier — and the fleet scheduler (internal/sched) admits batch jobs
// only against their pool's balance. Pool balances refill from the live
// fleet harvest in proportion to their reservations and drain as member
// jobs consume grants, so a pool is a claim on *future* harvest, not a
// core assignment.
//
// Admission of a new pool is bounded by the fleet-wide per-server
// forecast (cluster.Fleet.ForecastCores): each tier may commit reserved
// cores up to Overcommit × the tier's exposure factor × the forecast.
// Spot pools accept the most overcommit and absorb evictions first when
// harvest collapses; premium pools are admitted conservatively and
// carry the steepest SLA penalty when their eviction budget is
// exceeded. Eviction order on a loaded server is ascending-tier
// (spot first), newest placement first within a tier.
//
// Determinism contract: the ledger draws only from its own RNG stream
// (seed ^ marketSeedSalt), so runs with a zero Config are byte-identical
// to builds without this package in the loop, and enabling pools never
// perturbs the tenant/job/fault schedules.
package market

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"smartharvest/internal/grammar"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// marketSeedSalt derives the ledger's dedicated RNG stream from the
// scenario seed, disjoint from the job-arrival and fault streams.
const marketSeedSalt uint64 = 0xA11C0DE5F00D1E55

// Tier is a pool's eviction-SLA class.
type Tier uint8

const (
	// Spot: evicted first, unlimited eviction budget, no penalty, and
	// the largest overcommit exposure (cheapest capacity).
	Spot Tier = iota
	// Standard: evicted after spot, a small eviction budget, moderate
	// penalties beyond it, admitted at par with the forecast.
	Standard
	// Premium: evicted last, a budget of one eviction, steep penalties,
	// and admission at only half the forecast exposure.
	Premium

	numTiers
)

var tiers = grammar.Enum[Tier]{Pkg: "market", What: "tier", Unknown: "unknown",
	Names: []string{"spot", "standard", "premium"}}

func (t Tier) String() string { return tiers.String(t) }

// ParseTier parses a tier name as used by the -pools syntax.
func ParseTier(s string) (Tier, error) { return tiers.Parse(s) }

// UnmarshalText implements encoding.TextUnmarshaler. (Tier has no
// MarshalText: results carry it as a number.)
func (t *Tier) UnmarshalText(text []byte) error { return tiers.UnmarshalText(t, text) }

// TierParams are the SLA economics of one tier.
type TierParams struct {
	// OvercommitFactor scales the global overcommit ratio for this
	// tier's admission bound: reserved cores admitted in the tier may
	// not exceed Overcommit × OvercommitFactor × fleet forecast.
	OvercommitFactor float64
	// EvictionBudget is how many capacity evictions the tier tolerates
	// per pool before each further eviction is an SLA violation;
	// negative means unlimited.
	EvictionBudget int
	// PenaltyFactor prices an SLA-violating eviction: the charge is
	// PenaltyFactor × the pool's per-core-second price.
	PenaltyFactor float64
}

var tierParams = [numTiers]TierParams{
	Spot:     {OvercommitFactor: 2.0, EvictionBudget: -1, PenaltyFactor: 0},
	Standard: {OvercommitFactor: 1.0, EvictionBudget: 3, PenaltyFactor: 2},
	Premium:  {OvercommitFactor: 0.5, EvictionBudget: 1, PenaltyFactor: 8},
}

// Params returns the tier's SLA economics.
func (t Tier) Params() TierParams {
	if t < numTiers {
		return tierParams[t]
	}
	return TierParams{}
}

// Tiers returns all tiers in ascending eviction order (spot first).
func Tiers() []Tier { return []Tier{Spot, Standard, Premium} }

// PoolSpec is one customer's pool request.
//
// Each field's `key` tag declares its -pools key (internal/grammar).
type PoolSpec struct {
	// Name identifies the pool in events and reports; required, unique.
	Name string `key:"name,always"`
	// Tier is the pool's eviction-SLA class.
	Tier Tier `key:"tier,always"`
	// Reserved is the pool's harvested-core reservation: its share of
	// each refill and the quantity the admission bound counts.
	Reserved int `key:"reserved,always"`
	// Size is the pool's balance capacity in core-time (core-seconds);
	// refills beyond it are forfeited. Default: Reserved × 10 s.
	Size sim.Time `key:"size"`
	// Price is revenue per core-second of balance consumed (default 1).
	Price float64 `key:"price"`
	// At is when the pool open is requested; zero (or anything earlier)
	// means at the end of warmup.
	At sim.Time `key:"at"`
}

// withDefaults fills the per-pool defaults.
func (p PoolSpec) withDefaults() PoolSpec {
	if p.Size == 0 {
		p.Size = sim.Time(p.Reserved) * 10 * sim.Second
	}
	if p.Price == 0 {
		p.Price = 1
	}
	return p
}

// Config parameterizes the market. The zero value disables it: no
// ledger is constructed, no RNG stream is drawn, and no events are
// emitted, keeping no-pool runs byte-identical to pre-market builds.
type Config struct {
	// Overcommit is the global overcommit ratio scaling every tier's
	// admission bound (default 1.5).
	Overcommit float64 `key:"overcommit"`
	// Pools are the pool-open requests, processed in order (ties in At
	// resolve in slice order).
	Pools []PoolSpec
}

// Enabled reports whether the market is active at all.
func (c Config) Enabled() bool { return len(c.Pools) > 0 }

// DefaultOvercommit is the global overcommit ratio in force when the
// config leaves it zero.
const DefaultOvercommit = 1.5

// EffectiveOvercommit returns the overcommit ratio with the default
// filled in — the value the ledger (and the invariant checker) use.
func (c Config) EffectiveOvercommit() float64 {
	if c.Overcommit == 0 {
		return DefaultOvercommit
	}
	return c.Overcommit
}

// The -pools grammar, derived from the `key` tags: the global keys of
// Config and the per-pool keys of PoolSpec.
var (
	configKeys = grammar.New[Config]("market")
	poolKeys   = grammar.New[PoolSpec]("market")
)

// Keys lists the -pools keys, global keys first, for usage text.
func Keys() []string { return append(configKeys.Keys(""), poolKeys.Keys("")...) }

func (c Config) validate() error {
	if err := configKeys.Check(c); err != nil {
		return err
	}
	seen := make(map[string]bool, len(c.Pools))
	for i, p := range c.Pools {
		if p.Name == "" {
			return fmt.Errorf("market: pool %d has no name", i)
		}
		if strings.ContainsAny(p.Name, ";,= ") {
			return fmt.Errorf("market: pool name %q may not contain ';', ',', '=', or spaces", p.Name)
		}
		if !utf8.ValidString(p.Name) { // it is written into JSONL traces
			return fmt.Errorf("market: pool name %q is not valid UTF-8", p.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("market: duplicate pool name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Reserved < 1 {
			return fmt.Errorf("market: pool %q reserved cores %d must be >= 1", p.Name, p.Reserved)
		}
		if err := poolKeys.Check(p); err != nil {
			return fmt.Errorf("%w (pool %q)", err, p.Name)
		}
	}
	return nil
}

// ParsePools parses the -pools CLI syntax: pool specs separated by ';',
// each a comma-separated key=value list of PoolSpec keys (name and
// reserved required), and the global key overcommit in any segment.
// The empty string and "none" are the zero (disabled) Config.
func ParsePools(s string) (Config, error) {
	var c Config
	if s = strings.TrimSpace(s); s == grammar.None {
		return c, nil
	}
	for _, seg := range strings.Split(s, ";") {
		if seg = strings.TrimSpace(seg); seg == "" {
			continue
		}
		var p PoolSpec
		pool := false
		err := poolKeys.Pairs(seg, func(k, v string) error {
			if configKeys.Has(k) {
				return configKeys.Set(&c, k, v)
			}
			pool = true
			return poolKeys.Set(&p, k, v)
		})
		if err != nil {
			return Config{}, err
		}
		if pool {
			c.Pools = append(c.Pools, p)
		}
	}
	if err := c.validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// String renders the config back in ParsePools syntax (only non-zero
// keys), "none" when disabled. ParsePools(c.String()) round-trips.
func (c Config) String() string {
	segs := configKeys.Format(c)
	for _, p := range c.Pools {
		segs = append(segs, strings.Join(poolKeys.Format(p), ","))
	}
	return grammar.Join(segs, ";")
}

// MarshalText implements encoding.TextMarshaler.
func (c Config) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (c *Config) UnmarshalText(text []byte) (err error) {
	*c, err = ParsePools(string(text))
	return err
}

// Pool is one admitted (or rejected) pool's live accounting state.
// Fields are mutated only by the Ledger; the scheduler reads them.
type Pool struct {
	// Spec is the defaults-filled request.
	Spec PoolSpec
	// Admitted reports whether the overcommit bound accepted the pool.
	Admitted bool
	// Balance is the unconsumed core-time in the pool, in [0, Size].
	Balance sim.Time
	// Consumed is the cumulative core-time drained by member jobs.
	Consumed sim.Time
	// Penalties is the cumulative SLA-violation charge.
	Penalties float64
	// Evictions counts capacity evictions charged against the tier's
	// budget (exhausted-balance evictions are not SLA events).
	Evictions int
	// Violations counts capacity evictions beyond the tier's budget.
	Violations int

	tickRefill sim.Time
	tickDrain  sim.Time
}

// Revenue is the pool's gross revenue: consumed core-seconds × price.
func (p *Pool) Revenue() float64 { return p.Consumed.Seconds() * p.Spec.Price }

// Ledger is the market's runtime: it owns pool accounting, the
// overcommit-bounded admission rule, and the dedicated RNG stream for
// job→pool assignment. One ledger serves one scenario; it is not safe
// for concurrent use (the sim loop is single-threaded).
type Ledger struct {
	cfg   Config
	rng   *simrng.Rand
	now   func() sim.Time
	obs   obs.Observer
	specs []PoolSpec // defaults-filled, in Config order

	pools     []*Pool // admission attempts, in decision order
	open      []*Pool // admitted pools, in decision order
	committed [numTiers]int
	rejected  int
}

// NewLedger builds a ledger for the config, drawing job→pool
// assignments from a stream derived from seed alone (seed ^
// marketSeedSalt) so no other schedule shifts. observer may be nil.
func NewLedger(cfg Config, seed uint64, now func() sim.Time, observer obs.Observer) (*Ledger, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Overcommit = cfg.EffectiveOvercommit()
	l := &Ledger{
		cfg: cfg,
		rng: simrng.New(seed ^ marketSeedSalt),
		now: now,
		obs: observer,
	}
	for _, p := range cfg.Pools {
		l.specs = append(l.specs, p.withDefaults())
	}
	return l, nil
}

// Specs returns the defaults-filled pool requests in config order; the
// scheduler uses them to schedule TryOpen calls.
func (l *Ledger) Specs() []PoolSpec { return l.specs }

// BoundFor returns the reserved-core admission bound for tier at the
// given overcommit ratio and fleet-wide forecast — the one expression
// the ledger and the invariant checker share, so recomputation is
// bit-exact.
func BoundFor(overcommit float64, t Tier, forecast int) float64 {
	return overcommit * t.Params().OvercommitFactor * float64(forecast)
}

// Bound returns the reserved-core admission bound for tier at the given
// fleet-wide forecast.
func (l *Ledger) Bound(t Tier, forecast int) float64 {
	return BoundFor(l.cfg.Overcommit, t, forecast)
}

// TryOpen decides admission for spec index i against the fleet-wide
// forecast, emits PoolOpen or PoolReject, and returns the admitted pool
// (nil on rejection).
func (l *Ledger) TryOpen(i int, forecast int) *Pool {
	spec := l.specs[i]
	bound := l.Bound(spec.Tier, forecast)
	p := &Pool{Spec: spec}
	l.pools = append(l.pools, p)
	if float64(l.committed[spec.Tier]+spec.Reserved) > bound {
		l.rejected++
		if l.obs != nil {
			l.obs.OnPoolReject(obs.PoolReject{
				At: l.now(), Pool: spec.Name, Tier: spec.Tier.String(),
				Reserved: spec.Reserved, Forecast: forecast, Bound: bound,
				Committed: l.committed[spec.Tier],
			})
		}
		return nil
	}
	l.committed[spec.Tier] += spec.Reserved
	p.Admitted = true
	l.open = append(l.open, p)
	if l.obs != nil {
		l.obs.OnPoolOpen(obs.PoolOpen{
			At: l.now(), Pool: spec.Name, Tier: spec.Tier.String(),
			Reserved: spec.Reserved, Size: spec.Size, Price: spec.Price,
			Forecast: forecast, Bound: bound,
			Committed: l.committed[spec.Tier],
		})
	}
	return p
}

// AssignPool draws a pool for a newly submitted job, weighted by
// reserved cores among the admitted pools. It returns nil — and draws
// nothing — when no pool has been admitted yet; callers retry later.
func (l *Ledger) AssignPool() *Pool {
	total := 0
	for _, p := range l.open {
		total += p.Spec.Reserved
	}
	if total == 0 {
		return nil
	}
	r := l.rng.Intn(total)
	for _, p := range l.open {
		r -= p.Spec.Reserved
		if r < 0 {
			return p
		}
	}
	return l.open[len(l.open)-1] // unreachable
}

// Refill distributes one reconcile tick's harvest (harvest cores over
// dt) across the admitted pools in proportion to their reservations,
// capping each balance at its size. Integer core-time arithmetic keeps
// the split a pure function of the inputs.
func (l *Ledger) Refill(harvest int, dt sim.Time) {
	if harvest <= 0 || len(l.open) == 0 {
		return
	}
	total := 0
	for _, p := range l.open {
		total += p.Spec.Reserved
	}
	supply := sim.Time(harvest) * dt
	for _, p := range l.open {
		refill := supply * sim.Time(p.Spec.Reserved) / sim.Time(total)
		if room := p.Spec.Size - p.Balance; refill > room {
			refill = room
		}
		p.Balance += refill
		p.tickRefill += refill
	}
}

// Drain consumes up to want core-time from the pool's balance on behalf
// of a running member job and returns what was actually available. A
// short return means the pool is exhausted; the caller evicts.
func (l *Ledger) Drain(p *Pool, want sim.Time) sim.Time {
	if want > p.Balance {
		want = p.Balance
	}
	p.Balance -= want
	p.Consumed += want
	p.tickDrain += want
	return want
}

// FlushAccounting emits one PoolAccount per admitted pool that moved
// this tick (in admission order) and resets the tick accumulators.
func (l *Ledger) FlushAccounting() {
	for _, p := range l.open {
		if p.tickRefill != 0 || p.tickDrain != 0 {
			if l.obs != nil {
				l.obs.OnPoolAccount(obs.PoolAccount{
					At: l.now(), Pool: p.Spec.Name,
					Refill: p.tickRefill, Drain: p.tickDrain, Balance: p.Balance,
				})
			}
			p.tickRefill, p.tickDrain = 0, 0
		}
	}
}

// Grant records a job placement against the pool (the scheduler has
// already verified Balance > 0) and emits PoolGrant.
func (l *Ledger) Grant(p *Pool, job string) {
	if l.obs != nil {
		l.obs.OnPoolGrant(obs.PoolGrant{
			At: l.now(), Job: job, Pool: p.Spec.Name,
			Tier: p.Spec.Tier.String(), Balance: p.Balance,
		})
	}
}

// CapacityEvict charges one harvest-collapse eviction of job against
// the pool's tier budget, accruing an SLA penalty beyond it, and emits
// PoolEvict (reason "capacity") — the caller follows with the JobEvict.
func (l *Ledger) CapacityEvict(p *Pool, job string) {
	p.Evictions++
	params := p.Spec.Tier.Params()
	violation := params.EvictionBudget >= 0 && p.Evictions > params.EvictionBudget
	var penalty float64
	if violation {
		p.Violations++
		penalty = params.PenaltyFactor * p.Spec.Price
		p.Penalties += penalty
	}
	if l.obs != nil {
		l.obs.OnPoolEvict(obs.PoolEvict{
			At: l.now(), Job: job, Pool: p.Spec.Name, Tier: p.Spec.Tier.String(),
			Reason: "capacity", Evictions: p.Evictions,
			SLAViolation: violation, Penalty: penalty,
		})
	}
}

// ExhaustedEvict records an eviction caused by the pool's own balance
// running dry. It is the customer's exposure, not the platform's, so no
// budget is charged and no penalty accrues.
func (l *Ledger) ExhaustedEvict(p *Pool, job string) {
	if l.obs != nil {
		l.obs.OnPoolEvict(obs.PoolEvict{
			At: l.now(), Job: job, Pool: p.Spec.Name, Tier: p.Spec.Tier.String(),
			Reason: "exhausted", Evictions: p.Evictions,
			SLAViolation: false, Penalty: 0,
		})
	}
}

// Settle emits one PoolSettle per admitted pool (in admission order)
// with the final accounting totals; call it once at run end.
func (l *Ledger) Settle() {
	for _, p := range l.open {
		if l.obs != nil {
			l.obs.OnPoolSettle(obs.PoolSettle{
				At: l.now(), Pool: p.Spec.Name,
				Consumed: p.Consumed, Revenue: p.Revenue(), Penalties: p.Penalties,
				Evictions: p.Evictions, Violations: p.Violations,
			})
		}
	}
}

// PoolResult is one pool's final accounting in a Result.
type PoolResult struct {
	Name       string
	Tier       Tier
	Admitted   bool
	Reserved   int
	Size       sim.Time
	Balance    sim.Time
	Consumed   sim.Time
	Revenue    float64
	Penalties  float64
	Evictions  int
	Violations int
}

// Result is the market's end-of-run summary.
type Result struct {
	// Admitted / Rejected count pool-open decisions.
	Admitted, Rejected int
	// Pools lists every decision in decision order.
	Pools []PoolResult
	// Revenue is gross revenue summed over admitted pools; Penalties is
	// the total SLA-violation charge.
	Revenue, Penalties float64
	// ReservedByTier sums admitted reserved cores per tier;
	// EvictionsByTier / ViolationsByTier sum the SLA accounting.
	ReservedByTier   [3]int
	EvictionsByTier  [3]int
	ViolationsByTier [3]int
	// RevenueGoodput is price-weighted goodput: each job's completed
	// core-seconds × its pool's price (filled by the scheduler).
	RevenueGoodput float64
}

// Result snapshots the ledger's accounting.
func (l *Ledger) Result() *Result {
	r := &Result{Admitted: len(l.open), Rejected: l.rejected}
	for _, p := range l.pools {
		r.Pools = append(r.Pools, PoolResult{
			Name: p.Spec.Name, Tier: p.Spec.Tier, Admitted: p.Admitted,
			Reserved: p.Spec.Reserved, Size: p.Spec.Size,
			Balance: p.Balance, Consumed: p.Consumed,
			Revenue: p.Revenue(), Penalties: p.Penalties,
			Evictions: p.Evictions, Violations: p.Violations,
		})
		if p.Admitted {
			r.Revenue += p.Revenue()
			r.Penalties += p.Penalties
			r.ReservedByTier[p.Spec.Tier] += p.Spec.Reserved
			r.EvictionsByTier[p.Spec.Tier] += p.Evictions
			r.ViolationsByTier[p.Spec.Tier] += p.Violations
		}
	}
	return r
}
