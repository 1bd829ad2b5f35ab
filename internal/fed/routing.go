package fed

// Routing policies: where an arriving job lands. All three are pure
// functions of deterministic shard state, so routing never breaks the
// federation's repeat-run byte-identity.

import "hash/fnv"

// Policy selects the federation's job-routing policy.
type Policy int

// Routing policies.
const (
	// LeastLoaded routes to the shard with the fewest queued jobs
	// (ties: fewest running, then lowest id). Best default for
	// throughput under a balanced workload.
	LeastLoaded Policy = iota
	// PowerHeadroom routes to the shard with the most free watts
	// (ties: lowest id). Prefers shards that can place the job
	// immediately at full budget; good for power-hungry jobs.
	PowerHeadroom
	// Locality hashes the job's locality key onto a fixed shard, so
	// related jobs land together (dataset affinity) at the cost of
	// balance.
	Locality
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PowerHeadroom:
		return "power-headroom"
	case Locality:
		return "locality"
	default:
		return "least-loaded"
	}
}

// ParsePolicy maps a policy name (as accepted by clipfed's -routing
// flag) to its Policy.
func ParsePolicy(name string) (Policy, bool) {
	switch name {
	case "least-loaded":
		return LeastLoaded, true
	case "power-headroom":
		return PowerHeadroom, true
	case "locality":
		return Locality, true
	}
	return 0, false
}

// shardFor returns the shard index the Locality policy maps a key to
// among n shards.
func shardFor(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// pickShard applies the configured routing policy to one arrival.
// With a shard-fault stream armed, unhealthy shards (down, partitioned
// or rejoining) are steered around; if no shard is routable at all the
// router falls back to health-blind placement — the job must land
// somewhere, and the region will run it once it recovers. Health is
// only read at federation-owned events, so routing stays a pure
// function of deterministic state.
func (f *Federation) pickShard(a *fedArrival) int {
	if f.sfaults != nil {
		if id := f.pickAmong(a, true); id >= 0 {
			return id
		}
	}
	return f.pickAmong(a, false)
}

// pickAmong applies the routing policy among routable shards only when
// routableOnly is set, among all shards otherwise; -1 when none
// qualifies.
func (f *Federation) pickAmong(a *fedArrival, routableOnly bool) int {
	switch f.cfg.Routing {
	case PowerHeadroom:
		// The first eligible shard, then only a strictly greater
		// free-watts value: ties go to the lowest id.
		best, bestW := -1, 0.0
		for _, sh := range f.shards {
			if routableOnly && !f.routable(sh.ID) {
				continue
			}
			if w := sh.Online.FreeWatts(); best < 0 || w > bestW {
				best, bestW = sh.ID, w
			}
		}
		return best
	case Locality:
		// Linear-probe from the key's home shard so placement stays a
		// pure function of (key, health vector) and keys rehome to
		// stable neighbors for the duration of an outage.
		key := a.key
		if key == "" {
			key = a.id
		}
		home := shardFor(key, len(f.shards))
		for k := 0; k < len(f.shards); k++ {
			if id := (home + k) % len(f.shards); !routableOnly || f.routable(id) {
				return id
			}
		}
		return -1
	default: // LeastLoaded
		return f.leastLoaded(routableOnly)
	}
}

// shardLoad is a shard's position in the least-loaded order.
type shardLoad struct{ queued, running, id int }

// loadOf reads a shard's current load.
func loadOf(sh *Shard) shardLoad {
	return shardLoad{sh.Online.QueueLen(), sh.Online.RunningLen(), sh.ID}
}

// less is the least-loaded order shared by routing and evacuation:
// fewest queued jobs, then fewest running, then lowest id.
func (a shardLoad) less(b shardLoad) bool {
	if a.queued != b.queued {
		return a.queued < b.queued
	}
	if a.running != b.running {
		return a.running < b.running
	}
	return a.id < b.id
}

// leastLoaded returns the least-loaded shard, among routable shards
// only when routableOnly is set; -1 when none qualifies.
func (f *Federation) leastLoaded(routableOnly bool) int {
	best := shardLoad{id: -1}
	for _, sh := range f.shards {
		if routableOnly && !f.routable(sh.ID) {
			continue
		}
		if l := loadOf(sh); best.id < 0 || l.less(best) {
			best = l
		}
	}
	return best.id
}
