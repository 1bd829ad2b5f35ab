package coordinator

import (
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/recommend"
	"repro/internal/rng"
	"repro/internal/workload"
)

// suiteApp is one suite application with its profiled grid.
type suiteApp struct {
	app  *workload.Spec
	grid *recommend.Grid
}

// suiteGrids profiles every suite application once per test binary, on
// the Haswell node spec every fuzzed cluster shares.
var suiteGrids = sync.OnceValues(func() ([]suiteApp, error) {
	cl := hw.NewCluster(1, hw.HaswellSpec(), 0, 1)
	m, err := perfmodel.TrainNP(cl.Spec(), workload.TrainingSet(42, 7))
	if err != nil {
		return nil, err
	}
	var out []suiteApp
	for _, app := range workload.Suite() {
		p, err := (&profile.Profiler{Cluster: cl}).Full(app, m)
		if err != nil {
			return nil, err
		}
		pd, err := perfmodel.NewPredictor(cl.Spec(), p)
		if err != nil {
			return nil, err
		}
		out = append(out, suiteApp{app, recommend.NewGrid(cl.Spec(), p, pd)})
	}
	return out, nil
})

// viewOf builds a renumbered cluster over pool: slot i is node pool[i]
// of cl, with its spec and power efficiency. It is the reference for a
// placement on a pool, which must be the view's placement with its
// slots mapped back through the pool.
func viewOf(cl *hw.Cluster, pool []int) *hw.Cluster {
	view := &hw.Cluster{LinkBW: cl.LinkBW, CommBaseLatency: cl.CommBaseLatency}
	for i, id := range pool {
		n := cl.Nodes[id]
		view.Nodes = append(view.Nodes, &hw.Node{ID: i, Spec: n.Spec, PowerEff: n.PowerEff})
	}
	return view
}

// samePlacement reports whether two placements agree bit for bit in
// node ids, budgets, predicted time, coordination and configuration.
func samePlacement(a, b *Placement) bool {
	bits := math.Float64bits
	if !slices.Equal(a.NodeIDs, b.NodeIDs) || len(a.PerNode) != len(b.PerNode) ||
		bits(a.PredTime) != bits(b.PredTime) || a.Coordinated != b.Coordinated {
		return false
	}
	for i := range a.PerNode {
		if bits(a.PerNode[i].CPU) != bits(b.PerNode[i].CPU) || bits(a.PerNode[i].Mem) != bits(b.PerNode[i].Mem) {
			return false
		}
	}
	x, y := a.NodeCfg, b.NodeCfg
	return x.Cores == y.Cores && x.Affinity == y.Affinity && x.CapOK == y.CapOK &&
		bits(x.Budget.CPU) == bits(y.Budget.CPU) && bits(x.Budget.Mem) == bits(y.Budget.Mem) &&
		bits(x.Freq) == bits(y.Freq) && bits(x.PredIterTime) == bits(y.PredIterTime)
}

// refPicks is the node choice written out for the test: the first n of
// pool ordered preferred first, then by PowerEff, then by id, put back
// in ascending order when the constraint prefers no node.
func refPicks(cl *hw.Cluster, c *workload.NodeConstraint, pool []int, n int) []int {
	ids := slices.Clone(pool)
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if c.Prefers(a) != c.Prefers(b) {
			return c.Prefers(a)
		}
		if ea, eb := cl.Nodes[a].PowerEff, cl.Nodes[b].PowerEff; ea != eb {
			return ea < eb
		}
		return a < b
	})
	ids = ids[:n]
	if len(c.PreferNodes) == 0 {
		sort.Ints(ids)
	}
	return ids
}

// FuzzPlaceOnPoolMatchesView checks Place on a pool of cluster node ids
// against Place on the renumbered view of that pool (viewOf). The
// cluster has 1 to 24 nodes with a spread of 0 to 0.15; the pool is
// the nodes whose bit is set in mask, always shuffled; when ranked, the
// app prefers a random subset of the cluster's nodes, in the pool or
// not; the bound runs from -100 to 8,000 W (NaN and ±Inf are asked as
// they are); the threshold is the default, one that always
// coordinates, a disabled one or 0.01; and both objectives are asked.
// The view is built on the pool in ascending order, with preferences
// mapped to its slots (one outside the pool to a slot past the view).
// Both must fail alike or place alike: NodeIDs (the view's slots mapped
// through the pool), PerNode, PredTime, Coordinated and NodeCfg, bit for
// bit. Since the view shares pickNodes with the pool, the picks are
// also checked against refPicks.
func FuzzPlaceOnPoolMatchesView(f *testing.F) {
	apps, err := suiteGrids()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []struct {
		seed   uint64
		nodes  uint8
		sigma  uint8
		mask   uint64
		ranked bool
		app    uint8
		bound  float64
		thr    uint8
	}{
		{1, 16, 8, 0xff00, false, 3, 1600, 0},
		{1, 16, 8, 0xff00, true, 3, 1600, 1},
		{2, 16, 8, 0x6a59, true, 4, 2400, 1},
		{3, 8, 5, 0xff, false, 0, 1200, 1},
		{4, 12, 10, 0xabc, true, 7, 900, 3},
		{5, 24, 15, 0xf0f0f0, true, 1, 4000, 0},
		{6, 24, 15, 0xf0f0f0, false, 2, 4000, 2},
		{7, 4, 0, 0x5, false, 5, 300, 0},
		{8, 10, 12, 0x3ff, true, 6, 50, 1},
		{9, 6, 8, 0, false, 0, 1000, 0},
		{10, 16, 8, 0xffff, true, 3, 700, 1},
		{11, 12, 10, 0xfff, true, 0, 600, 0},
	} {
		f.Add(s.seed, s.nodes, s.sigma, s.mask, s.ranked, s.app, s.bound, s.thr, false)
		f.Add(s.seed, s.nodes, s.sigma, s.mask, s.ranked, s.app, s.bound, s.thr, true)
	}
	f.Add(uint64(1), uint8(8), uint8(8), uint64(0xff), true, uint8(0), math.NaN(), uint8(0), false)
	f.Add(uint64(1), uint8(8), uint8(8), uint64(0xff), true, uint8(0), math.Inf(1), uint8(1), false)
	f.Add(uint64(1), uint8(8), uint8(8), uint64(0xff), false, uint8(0), -5.0, uint8(0), false)
	f.Fuzz(func(t *testing.T, seed uint64, nodes, sigma uint8, mask uint64, ranked bool, app uint8, bound float64, thr uint8, energy bool) {
		n := 1 + int(nodes)%24
		cl := hw.NewCluster(n, hw.HaswellSpec(), float64(sigma%16)/100, int64(seed))
		var asc []int
		for id := 0; id < n; id++ {
			if mask>>id&1 == 1 {
				asc = append(asc, id)
			}
		}
		r := rng.New(seed)
		pool := slices.Clone(asc)
		for i := len(pool) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			pool[i], pool[j] = pool[j], pool[i]
		}
		a := apps[int(app)%len(apps)]
		spec, viewSpec := *a.app, *a.app
		if ranked {
			for id := 0; id < n; id++ {
				if r.Intn(2) == 0 {
					continue
				}
				spec.Constraint.PreferNodes = append(spec.Constraint.PreferNodes, id)
				slot, ok := slices.BinarySearch(asc, id)
				if !ok {
					slot = len(asc)
				}
				viewSpec.Constraint.PreferNodes = append(viewSpec.Constraint.PreferNodes, slot)
			}
		}
		if !math.IsNaN(bound) && !math.IsInf(bound, 0) && (bound < -100 || bound > 8000) {
			bound = -100 + math.Mod(math.Abs(bound), 8100)
		}
		co := Coordinator{
			Cluster:   cl,
			Threshold: []float64{0, 1e-9, -1, 0.01}[thr%4],
		}
		if energy {
			co.EnergyTolerance = 0.1
		}
		ref := co
		ref.Cluster = viewOf(cl, asc)
		var sc, refSc Scratch
		var got, want Placement
		gotErr := co.Place(&spec, a.grid, pool, bound, &sc, &got)
		wantErr := ref.Place(&viewSpec, a.grid, plan.FirstN(len(asc)), bound, &refSc, &want)
		if !errors.Is(gotErr, wantErr) {
			t.Fatalf("%s on pool %v at %v W: Place error %v, view error %v", spec.Name, pool, bound, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if picks := refPicks(cl, &spec.Constraint, pool, len(got.NodeIDs)); !slices.Equal(got.NodeIDs, picks) {
			t.Errorf("%s on pool %v preferring %v: picked %v, want %v",
				spec.Name, pool, spec.Constraint.PreferNodes, got.NodeIDs, picks)
		}
		for i, slot := range want.NodeIDs {
			want.NodeIDs[i] = asc[slot]
		}
		if !samePlacement(&got, &want) {
			t.Errorf("%s on pool %v preferring %v at %v W, threshold %g:\n pool %+v\n view %+v",
				spec.Name, pool, spec.Constraint.PreferNodes, bound, co.Threshold, got, want)
		}
	})
}
