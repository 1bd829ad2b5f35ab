package fed

// The power-lending broker: after every federation event, shards with
// starved queues borrow envelope headroom from idle shards in fixed
// quanta. Every loan is a Lease with an explicit state machine
//
//	active ──TTL reached──────────────▶ expired
//	active ──lender queue non-empty───▶ recalled
//	active ──borrower no longer needs─▶ released
//	active ──endpoint unreachable─────▶ orphaned ──reclaim──▶ reclaimed
//
// and all terminal transitions move the watts back through
// jobsched.Online.SetBound, so a borrower that is still holding jobs
// on borrowed power is throttled by the demand-response machinery
// (shed/derate) rather than ever violating its bound invariant.
//
// Orphan reclaim protocol (shard-fault runs only): when a shard crashes
// or partitions, every active lease it touches is orphaned — removed
// from the broker's working set with its watts left exactly where they
// are, so the sum of bounds is unchanged and Σ bounds ≤ cap holds
// through the outage (the lender's watts stay conservatively reserved
// on the borrower's side). After graceTTL the broker probes the lease:
// a probe succeeds when both endpoints are reachable again (the lease
// settles, watts move borrower→lender as usual); a failed probe
// reschedules with capped exponential backoff (recallDelay), and the
// probe after recallRetries failed probes force-reclaims — the
// facility's hardware capping cuts the unreachable borrower's envelope
// out-of-band, so the watts move even though the negotiation link is
// dead. A shard finishing its rejoin settles its remaining orphans
// immediately, so it re-enters routing with a clean bound.
//
// A lease holds at most one pending event: its expiry while active,
// its next recall probe while orphaned, none once settled.

import (
	"fmt"

	"repro/internal/des"
)

// LeaseState is a lease's lifecycle phase.
type LeaseState int

// Lease lifecycle states.
const (
	// LeaseActive: the watts are moved from lender to borrower.
	LeaseActive LeaseState = iota
	// LeaseExpired: the TTL elapsed and the watts went back.
	LeaseExpired
	// LeaseRecalled: the lender's own queue needed the watts back
	// before the TTL.
	LeaseRecalled
	// LeaseReleased: the borrower returned the watts early (queue
	// drained with the lease's watts free).
	LeaseReleased
	// LeaseOrphaned: an endpoint shard became unreachable (down or
	// partitioned); the watts are frozen in place while the reclaim
	// protocol runs. Not terminal.
	LeaseOrphaned
	// LeaseReclaimed: the orphan reclaim settled — by a successful
	// recall probe, the shard's rejoin, or a forced reclaim after the
	// probe budget ran out — and the watts went back.
	LeaseReclaimed
)

// String implements fmt.Stringer.
func (s LeaseState) String() string {
	switch s {
	case LeaseActive:
		return "active"
	case LeaseExpired:
		return "expired"
	case LeaseRecalled:
		return "recalled"
	case LeaseReleased:
		return "released"
	case LeaseOrphaned:
		return "orphaned"
	case LeaseReclaimed:
		return "reclaimed"
	default:
		return fmt.Sprintf("LeaseState(%d)", int(s))
	}
}

// Lease is one cross-shard power loan.
type Lease struct {
	// ID is the lease's federation-wide sequence number (0-based).
	ID int
	// Lender and Borrower are shard ids.
	Lender, Borrower int
	// Watts is the moved power.
	Watts float64
	// GrantedAt and ExpiresAt are virtual timestamps; SettledAt is when
	// the lease left the active state.
	GrantedAt, ExpiresAt, SettledAt float64
	// State is the lease's current lifecycle phase.
	State LeaseState
	// OrphanedAt is when the lease entered the orphan reclaim protocol
	// (zero for leases that never orphaned).
	OrphanedAt float64
	// Attempts counts the recall probes fired against the orphan.
	Attempts int
	// Forced records that the reclaim was forced (probe budget
	// exhausted, or settled by Drain) rather than answered by a
	// recovered shard.
	Forced bool

	// next is the pending fed-engine event: the expiry while active,
	// the next recall probe while orphaned, nil once settled.
	next *des.Event
}

// Leases returns every lease ever granted, by grant order. The slice
// is the federation's own bookkeeping; callers must not mutate it.
func (f *Federation) Leases() []*Lease { return f.leases }

// ActiveLeases returns the currently active leases, ascending ID.
func (f *Federation) ActiveLeases() []*Lease { return f.active }

// brokerPass runs the lending state machine at the current event
// boundary: recalls first (a lender's own demand outranks a borrower's
// loan), then early releases, then new grants. Iteration is in shard /
// lease order throughout, so repeat runs make identical decisions.
func (f *Federation) brokerPass() {
	if !f.cfg.Lending.Enabled || len(f.shards) < 2 {
		return
	}
	f.recallPass()
	f.releasePass()
	f.grantPass()
}

// recallPass returns every lease whose lender has queued work: the
// lender's own jobs outrank the borrower's loan, and the reclaimed
// entitlement lets its queue dispatch on the next event.
func (f *Federation) recallPass() {
	for i := 0; i < len(f.active); {
		l := f.active[i]
		if f.shards[l.Lender].Online.QueueLen() > 0 {
			f.settleLease(l, LeaseRecalled) // removes f.active[i]
			continue
		}
		i++
	}
}

// releasePass returns leases the borrower no longer needs: its queue is
// empty and the leased watts sit unallocated, so returning them cannot
// throttle anything.
func (f *Federation) releasePass() {
	for i := 0; i < len(f.active); {
		l := f.active[i]
		b := f.shards[l.Borrower]
		if b.Online.QueueLen() == 0 && b.Online.FreeWatts() >= l.Watts {
			f.settleLease(l, LeaseReleased)
			continue
		}
		i++
	}
}

// grantPass lends one quantum to each starved shard that can still
// accept a lease, from the idle shard with the most envelope headroom.
// The lender is picked once per pass and again only after a grant:
// until a grant the pass changes no shard, and a borrower has queued
// work, so it is never a lender candidate itself.
func (f *Federation) grantPass() {
	var lender *Shard
	picked := false
	for _, b := range f.shards {
		if !b.routable() {
			continue // broker link down or entitlement not re-earned
		}
		if b.Online.QueueLen() == 0 || b.Online.FreeNodes() == 0 {
			continue // no demand, or watts would not help (no nodes)
		}
		if f.borrowCount(b.ID) >= maxBorrowed {
			continue
		}
		if !picked {
			lender, picked = f.pickLender(), true
		}
		if lender == nil {
			continue
		}
		f.grant(lender, b)
		picked = false
	}
}

// borrowCount counts a shard's active incoming leases.
func (f *Federation) borrowCount(shard int) int {
	n := 0
	for _, l := range f.active {
		if l.Borrower == shard {
			n++
		}
	}
	return n
}

// pickLender selects the idle shard with the most lendable headroom
// (ties to the lower id); nil when nobody can cover a quantum.
func (f *Federation) pickLender() *Shard {
	cfg := f.cfg.Lending
	var best *Shard
	var bestHead float64
	for _, sh := range f.shards {
		if sh.Online.QueueLen() > 0 || !sh.routable() {
			continue
		}
		// Headroom: free watts beyond the reserve, capped so
		// the effective bound never drops below the floor.
		head := sh.Online.FreeWatts() - float64(reserveFrac*sh.entitlement) // float64(): no FMA
		if floorRoom := sh.eff - float64(minBoundFrac*sh.entitlement); head > floorRoom {
			head = floorRoom
		}
		if head < cfg.QuantumW {
			continue
		}
		if best == nil || head > bestHead {
			best, bestHead = sh, head
		}
	}
	return best
}

// grant moves one quantum from lender to borrower and schedules the
// lease's expiry on the federation clock.
func (f *Federation) grant(lender, borrower *Shard) {
	w := f.cfg.Lending.QuantumW
	l := &Lease{
		ID: len(f.leases), Lender: lender.ID, Borrower: borrower.ID,
		Watts: w, GrantedAt: f.now, ExpiresAt: f.now + f.cfg.Lending.TTL,
	}
	if err := f.moveBound(lender, -w); err != nil {
		f.fail(err)
		return
	}
	if err := f.moveBound(borrower, +w); err != nil {
		f.fail(err)
		return
	}
	ev, err := f.eng.At(l.ExpiresAt, f, fevLeaseExpiry, uint64(l.ID))
	if err != nil {
		f.fail(err)
		return
	}
	l.next = ev
	lender.lentW += w
	borrower.borrowedW += w
	f.leases = append(f.leases, l)
	f.active = append(f.active, l)
	mLeases.Inc()
	gWattsLent.Add(w)
}

// settleLease ends an active lease with the given terminal state,
// moving the watts back (borrower first: the federation must never
// transiently exceed the cap, and lowering before raising keeps the
// sum constant to the audit).
func (f *Federation) settleLease(l *Lease, state LeaseState) {
	if l.State != LeaseActive {
		return
	}
	f.returnWatts(l, state, &f.active)
	switch state {
	case LeaseExpired:
		mLeaseExpiries.Inc()
	case LeaseRecalled:
		mLeaseRecalls.Inc()
	case LeaseReleased:
		mLeaseReleases.Inc()
	}
}

// returnWatts moves l's watts back to its lender, borrower first so
// the sum of bounds never transiently exceeds the cap, cancels l's
// pending event, ends l in state at the current time and drops it from
// list. Every settlement comes through here.
func (f *Federation) returnWatts(l *Lease, state LeaseState, list *[]*Lease) {
	if l.next != nil {
		l.next.Cancel() // a no-op for the event now firing
		l.next = nil
	}
	lender, borrower := f.shards[l.Lender], f.shards[l.Borrower]
	if err := f.moveBound(borrower, -l.Watts); err != nil {
		f.fail(err)
	}
	if err := f.moveBound(lender, +l.Watts); err != nil {
		f.fail(err)
	}
	lender.lentW -= l.Watts
	borrower.borrowedW -= l.Watts
	l.State = state
	l.SettledAt = f.now
	for i, a := range *list {
		if a == l {
			*list = append((*list)[:i], (*list)[i+1:]...)
			break
		}
	}
}

// moveBound shifts a shard's effective bound by delta watts through
// the scheduler's demand-response path, keeping the broker's mirror in
// sync. The shard is advanced to the shared clock first so the change
// lands at the federation's current time on the shard's own timeline.
func (f *Federation) moveBound(sh *Shard, delta float64) error {
	f.touch(sh)
	if err := sh.Online.Advance(f.now); err != nil {
		return err
	}
	sh.eff += delta
	return sh.Online.SetBound(sh.eff)
}

// OrphanedLeases returns the leases currently in the orphan reclaim
// protocol, ascending ID.
func (f *Federation) OrphanedLeases() []*Lease { return f.orphans }

// orphanShardLeases moves every active lease touching shard into the
// orphan reclaim protocol. The watts do not move: freezing the lease in
// place keeps the sum of bounds constant, so the cap invariant holds
// through the outage, and the lender's watts stay conservatively
// reserved on the borrower's side until the reclaim settles.
func (f *Federation) orphanShardLeases(shard int) {
	for i := 0; i < len(f.active); {
		l := f.active[i]
		if l.Lender != shard && l.Borrower != shard {
			i++
			continue
		}
		l.next.Cancel() // the expiry
		l.State = LeaseOrphaned
		l.OrphanedAt = f.now
		f.active = append(f.active[:i], f.active[i+1:]...)
		f.orphans = append(f.orphans, l)
		mLeasesOrphaned.Inc()
		ev, err := f.eng.At(f.now+graceTTL, f, fevLeaseRecall, uint64(l.ID))
		l.next = ev
		if err != nil {
			f.fail(err)
			return
		}
	}
}

// recallProbe handles one recall probe against an orphaned lease (a
// settled lease has cancelled its probe): the probe succeeds when both
// endpoints are reachable again, fails onto the backoff schedule
// otherwise, and force-reclaims once recallRetries probes have failed.
func (f *Federation) recallProbe(l *Lease) {
	l.Attempts++
	if f.shards[l.Lender].reachable() && f.shards[l.Borrower].reachable() {
		f.settleOrphan(l, false)
		return
	}
	if l.Attempts > recallRetries {
		f.settleOrphan(l, true)
		return
	}
	ev, err := f.eng.At(f.now+f.recallDelay(l.ID, l.Attempts), f, fevLeaseRecall, uint64(l.ID))
	l.next = ev
	if err != nil {
		f.fail(err)
	}
}

// settleOrphan ends an orphaned lease: the watts finally move back
// through returnWatts, like settleLease's. forced marks reclaims the
// broker imposed without the shard answering (probe budget exhausted,
// Drain).
func (f *Federation) settleOrphan(l *Lease, forced bool) {
	if l.State != LeaseOrphaned {
		return
	}
	l.Forced = forced
	f.returnWatts(l, LeaseReclaimed, &f.orphans)
	mLeaseReclaims.Inc()
}

// settleShardOrphans settles every orphan touching shard whose other
// endpoint is reachable — the rejoin/heal path: the returning shard
// answers all its pending recalls at once, so it re-enters with a clean
// bound. Orphans whose other endpoint is also unreachable stay in the
// protocol (that endpoint's own recovery or probe budget ends them).
func (f *Federation) settleShardOrphans(shard int) {
	for i := 0; i < len(f.orphans); {
		l := f.orphans[i]
		if l.Lender != shard && l.Borrower != shard {
			i++
			continue
		}
		other := l.Lender
		if other == shard {
			other = l.Borrower
		}
		if !f.shards[other].reachable() {
			i++
			continue
		}
		f.settleOrphan(l, false) // removes f.orphans[i]
	}
}
