package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime/metrics"

	"amrtools/internal/cost"
	"amrtools/internal/mesh"
	"amrtools/internal/placement"
	"amrtools/internal/sfc"
	"amrtools/internal/xrand"
)

// rebalanceMesh is one fixed shell-refined mesh and its leaf keys.
type rebalanceMesh struct {
	ranks int
	m     *mesh.Mesh
	keys  []uint64 // leaf SFC keys in leaf order
}

// decision is one seeded rebalance decision: a mesh scale and a cost draw.
type decision struct {
	scale int // index into rebalanceScale.meshes
	dist  string
	costs []float64
}

// rebalanceScale replays Fig 7b/7c-style rebalance decisions: every policy
// of the Fig 6 suite plus Zonal on the same costs, then rank views and an
// SFC partition for the cpl50 assignment.
type rebalanceScale struct {
	meshes    []*rebalanceMesh
	decisions []decision
}

// rebalanceRanks are the two scales. rebalanceMix lists each decision of a
// round as (scale, distribution): two small decisions per large one, and
// each cost distribution once, so the seed changes the sampled costs but
// not the kind of work. Of the 21 Assign calls in a round, the 16384-rank
// CPLX, LPT and Zonal calls hold quantiles 0.24-0.71 (p50) and the
// 65536-rank CPLX and LPT calls 0.81-1 (p90). The large decision comes
// first, right after the round's forced GC, so the heap it peaks from is
// the same every round.
var (
	rebalanceRanks = []int{16384, 65536}
	rebalanceMix   = [][2]int{{1, 1}, {0, 0}, {0, 2}}
)

func setupRebalance(seed uint64) (campaign, error) {
	c := &rebalanceScale{}
	for _, ranks := range rebalanceRanks {
		c.meshes = append(c.meshes, shellMesh(ranks))
	}
	rng := xrand.New(seed)
	dists := cost.ScalebenchDistributions()
	for _, m := range rebalanceMix {
		d := dists[m[1]]
		n := c.meshes[m[0]].m.NumLeaves()
		c.decisions = append(c.decisions, decision{m[0], d.Name(), cost.Sample(d, n, rng)})
	}
	// Warm-up: the first small decision once.
	r := newRound()
	c.decide(nil, r, c.decisions[1])
	if r.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", r.failures[0])
	}
	return c, nil
}

// shellMesh builds a root grid of one block per rank and refines the root
// blocks whose centres lie in a spherical shell around the domain centre,
// giving about 1.3 blocks per rank.
func shellMesh(ranks int) *rebalanceMesh {
	dims := [3]int{1, 1, 1}
	for d := 0; dims[0]*dims[1]*dims[2] < ranks; d = (d + 1) % 3 {
		dims[d] *= 2
	}
	m := mesh.NewUniform(dims[0], dims[1], dims[2], 1)
	radius := 0.375 * float64(min(dims[0], dims[1], dims[2]))
	const width = 1.6 // shell thickness in root blocks
	m.RefineWhere(func(id mesh.BlockID) bool {
		if id.Level != 0 {
			return false
		}
		dx := float64(id.X) + 0.5 - float64(dims[0])/2
		dy := float64(id.Y) + 0.5 - float64(dims[1])/2
		dz := float64(id.Z) + 0.5 - float64(dims[2])/2
		return math.Abs(math.Sqrt(dx*dx+dy*dy+dz*dz)-radius) < width/2
	})
	g := m.Geometry()
	leaves := m.Leaves()
	keys := make([]uint64, len(leaves))
	for i, b := range leaves {
		keys[i] = g.Key(b.ID)
	}
	return &rebalanceMesh{ranks: ranks, m: m, keys: keys}
}

// policyClass names the placement metric a policy's calls feed.
func policyClass(p placement.Policy) string {
	switch q := p.(type) {
	case placement.Baseline:
		return "baseline"
	case placement.Zonal:
		return "zonal"
	case placement.CPLX:
		switch q.X {
		case 0:
			return "cdp"
		case 100:
			return "lpt"
		}
		return "cplx"
	}
	return "other"
}

func (c *rebalanceScale) round(tr *tracer) *roundResult {
	r := newRound()
	for _, d := range c.decisions {
		c.decide(tr, r, d)
	}
	r.exact["placement.makespan_over_lb"] = r.acc["placement.ratio_sum"] / r.acc["placement.calls"]
	return r
}

// heapAllocs returns the bytes allocated on the heap since the process
// started.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// decide runs one decision: every policy's Assign on the decision's costs,
// then rank views and a partition for the cpl50 assignment.
func (c *rebalanceScale) decide(tr *tracer, r *roundResult, d decision) {
	rm := c.meshes[d.scale]
	n, ranks := len(d.costs), rm.ranks
	chunk := 512
	pols := append(placement.StandardSuite(chunk),
		placement.Zonal{Inner: placement.CPLX{X: 50, ChunkSize: chunk}, Zones: ranks / 8192})
	lb := lowerBound(d.costs, ranks)
	op := tr.op()
	root := tr.begin("rebalance.decision", -1, op)
	var cpl50 placement.Assignment
	for _, p := range pols {
		class := policyClass(p)
		var a placement.Assignment
		allocBefore := heapAllocs()
		id := tr.begin("placement.Assign/"+class, root, op)
		sw := startWatch()
		err := guard(func() error {
			a = p.Assign(d.costs, ranks)
			return nil
		})
		ms, cpuMS := sw.elapsed()
		tr.end(id, int64(n))
		r.acc["placement.alloc_b"] += heapAllocs() - allocBefore
		r.acc["placement.blocks"] += float64(n)
		r.opsMS = append(r.opsMS, ms)
		r.opsCPUMS = append(r.opsCPUMS, cpuMS)
		var ratio float64
		if err == nil {
			ratio, err = checkAssignment(a, d.costs, ranks, lb)
		}
		r.check(fmt.Sprintf("%s/%d/%s", p.Name(), ranks, d.dist), err)
		if err != nil {
			continue
		}
		r.acc["placement.ratio_sum"] += ratio
		r.acc["placement.calls"]++
		r.exact["result.hash"] = foldHash(r.exact["result.hash"], a)
		if p.Name() == "cpl50" {
			cpl50 = a
		}
	}
	if cpl50 != nil {
		var views []*mesh.RankView
		id := tr.begin("mesh.BuildRankViews", root, op)
		err := guard(func() error {
			views = rm.m.BuildRankViews(cpl50, ranks)
			return nil
		})
		tr.end(id, int64(n))
		if err == nil {
			err = checkViews(views, rm.m, cpl50, ranks, r)
		}
		r.check(fmt.Sprintf("views/%d/%s", ranks, d.dist), err)

		counts := make([]int, ranks)
		for _, rank := range cpl50 {
			counts[rank]++
		}
		var part sfc.RangePartition
		id = tr.begin("sfc.PartitionFromCounts", root, op)
		err = guard(func() error {
			part = sfc.PartitionFromCounts(rm.keys, counts)
			return nil
		})
		tr.end(id, int64(ranks))
		if err == nil {
			err = checkPartition(part, rm.keys, counts)
		}
		r.check(fmt.Sprintf("partition/%d/%s", ranks, d.dist), err)
	}
	tr.end(root, int64(n))
}

// lowerBound is the trivial makespan bound: no rank can finish before the
// mean load or the largest single block.
func lowerBound(costs []float64, ranks int) float64 {
	var sum, max float64
	for _, c := range costs {
		sum += c
		max = math.Max(max, c)
	}
	return math.Max(sum/float64(ranks), max)
}

// checkAssignment checks that every block goes to a rank in range and that
// the makespan respects the lower bound; it returns makespan / bound.
func checkAssignment(a placement.Assignment, costs []float64, ranks int, lb float64) (float64, error) {
	if len(a) != len(costs) {
		return 0, fmt.Errorf("%d assignments for %d blocks", len(a), len(costs))
	}
	loads := make([]float64, ranks)
	for i, rank := range a {
		if rank < 0 || rank >= ranks {
			return 0, fmt.Errorf("block %d on rank %d of %d", i, rank, ranks)
		}
		loads[rank] += costs[i]
	}
	var makespan float64
	for _, l := range loads {
		makespan = math.Max(makespan, l)
	}
	if makespan < lb*(1-1e-12) {
		return 0, fmt.Errorf("makespan %v below lower bound %v", makespan, lb)
	}
	return makespan / lb, nil
}

// checkViews checks that each block is owned exactly once, by its assigned
// rank, and that every halo entry names the assigned owner.
func checkViews(views []*mesh.RankView, m *mesh.Mesh, a placement.Assignment, ranks int, r *roundResult) error {
	if len(views) != ranks {
		return fmt.Errorf("%d views for %d ranks", len(views), ranks)
	}
	leaves := m.Leaves()
	owned := make([]bool, len(leaves))
	var halo int
	for rank, v := range views {
		for _, b := range v.Owned {
			i := int(b.Index)
			if i < 0 || i >= len(leaves) || owned[i] {
				return fmt.Errorf("block %d owned twice or out of range", i)
			}
			owned[i] = true
			if a[i] != rank || leaves[i].ID != b.ID {
				return fmt.Errorf("block %d in view of rank %d, assigned to %d", i, rank, a[i])
			}
		}
		for _, hb := range v.Halo {
			i := int(hb.Index)
			if i < 0 || i >= len(leaves) || int(hb.Owner) != a[i] || int(hb.Owner) == rank {
				return fmt.Errorf("halo block %d of rank %d names owner %d, assigned to %d", i, rank, hb.Owner, a[i])
			}
		}
		halo += len(v.Halo)
	}
	for i, ok := range owned {
		if !ok {
			return fmt.Errorf("block %d owned by no view", i)
		}
	}
	r.exact["mesh.halo"] += float64(halo)
	r.exact["mesh.owned"] += float64(len(leaves))
	return nil
}

// checkPartition checks that each rank's first block resolves to that rank.
func checkPartition(p sfc.RangePartition, keys []uint64, counts []int) error {
	if p.NumRanks() != len(counts) {
		return fmt.Errorf("partition over %d ranks, want %d", p.NumRanks(), len(counts))
	}
	idx := 0
	for rank, c := range counts {
		if c > 0 {
			if got := p.Owner(keys[idx]); got != rank {
				return fmt.Errorf("key %d resolves to rank %d, want %d", idx, got, rank)
			}
			if got := p.Owner(keys[idx+c-1]); got != rank {
				return fmt.Errorf("key %d resolves to rank %d, want %d", idx+c-1, got, rank)
			}
		}
		idx += c
	}
	return nil
}

// foldHash mixes an assignment into a 52-bit running hash.
func foldHash(prev float64, a placement.Assignment) float64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(prev) >> (8 * i))
	}
	h.Write(b[:])
	for _, rank := range a {
		h.Write([]byte{byte(rank), byte(rank >> 8), byte(rank >> 16)})
	}
	return hashValue(h)
}
