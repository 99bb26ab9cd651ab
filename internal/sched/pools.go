package sched

import (
	"smartharvest/internal/market"
	"smartharvest/internal/sim"
)

// pools is the scheduler's capacity-market collaborator
// (internal/market): every job is assigned a pool and admitted only
// while its balance holds core-time, balances refill from the live fleet
// harvest and drain as members run each reconcile tick, evictions are
// charged to the victim's pool, and the run settles into Result.Market.
//
// Without a pool plan ledger is nil and pools is inert: every job is
// admissible and none has a pool, so nothing is granted, charged or
// settled — no events, no RNG draws.
type pools struct {
	s      *scheduler
	ledger *market.Ledger
}

// newPools schedules the plan's pool-open requests: each lands at its
// spec's time or at warmup, whichever is later (spec order breaks ties),
// and — scheduled ahead of the reconcile ticker — before that instant's
// tick, so an admitted pool sees its first refill immediately. The
// ledger's RNG stream derives from the seed alone: enabling pools shifts
// no tenant, job, or fault schedule.
func newPools(s *scheduler, seed uint64) (*pools, error) {
	p := &pools{s: s}
	if !s.cfg.Market.Enabled() {
		return p, nil
	}
	var err error
	if p.ledger, err = market.NewLedger(s.cfg.Market, seed, s.loop.Now, s.cfg.Fleet.Observer); err != nil {
		return nil, err
	}
	for i, spec := range p.ledger.Specs() {
		s.loop.At(max(spec.At, s.fleet.Warmup()), func() {
			p.ledger.TryOpen(i, s.fleet.TotalForecastCores())
			s.tryPlace()
		})
	}
	return p, nil
}

// tier is j's eviction-SLA tier — the lowest for a job without a pool,
// so pool-free runs evict by recency alone.
func (j *job) tier() market.Tier {
	if j.pool == nil {
		return market.Spot
	}
	return j.pool.Spec.Tier
}

// admissible reports whether j may be placed right now: it needs a pool
// (assigned on first demand — the weighted draw happens only once pools
// are open, so pre-market arrival order never shifts the stream) whose
// balance still holds core-time.
func (p *pools) admissible(j *job) bool {
	if p.ledger == nil {
		return true
	}
	if j.pool == nil {
		j.pool = p.ledger.AssignPool()
	}
	return j.pool != nil && j.pool.Balance > 0
}

// granted records j's placement against its pool.
func (p *pools) granted(j *job) {
	if j.pool != nil {
		p.ledger.Grant(j.pool, j.name)
	}
}

// charge bills j's eviction to its pool: a collapse or crash counts
// against the tier's eviction budget (SLA penalties beyond it); an
// exhausted balance is the customer's own limit and charges nothing.
func (p *pools) charge(j *job, cause evictCause) {
	switch {
	case j.pool == nil:
	case cause == causeExhausted:
		p.ledger.ExhaustedEvict(j.pool, j.name)
	default:
		p.ledger.CapacityEvict(j.pool, j.name)
	}
}

// tick runs one reconcile tick of pool accounting: refill from the live
// fleet harvest in reservation proportion, drain each running member's
// grant for the tick (pools bill in whole reconcile periods), flush the
// per-pool account events, then evict the members whose pool ran dry.
func (p *pools) tick() {
	if p.ledger == nil {
		return
	}
	s, dt := p.s, reconcileEvery
	p.ledger.Refill(s.fleet.TotalHarvestedCores(), dt)
	var exhausted []*job
	for _, rs := range s.running {
		for _, j := range rs {
			if j.app.Done() {
				continue
			}
			want := sim.Time(j.grant) * dt
			if got := p.ledger.Drain(j.pool, want); got < want {
				exhausted = append(exhausted, j)
			}
		}
	}
	p.ledger.FlushAccounting()
	for _, j := range exhausted {
		s.evict(j, causeExhausted)
	}
}

// settle closes the ledger and returns the market result (nil without
// pools), including revenue-weighted goodput: completed core-seconds at
// the job's pool rate. Like GoodputCoreSec, only finished jobs count.
func (p *pools) settle() *market.Result {
	if p.ledger == nil {
		return nil
	}
	p.ledger.Settle()
	m := p.ledger.Result()
	for _, j := range p.s.all {
		if j.state == stateDone {
			m.RevenueGoodput += j.spec.Work.Seconds() * j.pool.Spec.Price
		}
	}
	return m
}
