package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"amrtools/internal/driver"
	"amrtools/internal/experiments"
	"amrtools/internal/harness"
	"amrtools/internal/placement"
	"amrtools/internal/telemetry"
)

// sedovSteps is the quick-scale step count of the Fig 6 sweep.
const sedovSteps = 25

// driverCampaign runs full DES driver runs through the campaign harness:
// the Fig 6 sweep (sedov-campaign) or the quick scale campaign
// (rank-scale).
type driverCampaign struct {
	name    string
	workers int
	// configs builds the round's driver configs afresh (a Config holds a
	// stateful Problem, so no two runs may share one).
	configs func() []driver.Config
	ids     []string
	// steps reports whether runs collect the per-step table.
	steps bool
	// fig6 adds the Fig 6 shape check: cpl50 beats baseline.
	fig6 bool
}

func setupSedov(seed uint64) (campaign, error) {
	sc := experiments.QuickScale
	pols := placement.StandardSuite(0) // chunking starts at 4096 ranks
	c := &driverCampaign{name: "sedov-campaign", workers: workers, steps: true, fig6: true}
	for _, p := range pols {
		c.ids = append(c.ids, p.Name())
	}
	c.configs = func() []driver.Config {
		cfgs := make([]driver.Config, len(pols))
		for i, p := range pols {
			cfgs[i] = driver.DefaultConfig(sc.RootDims, 2, sedovSteps, p, seed)
		}
		return cfgs
	}
	// Warm-up: the cpl50 run of the sweep (baseline, cpl0, cpl25, cpl50, ...).
	cfg := c.configs()[3]
	res, err := driver.Run(cfg)
	if err == nil {
		err = checkRun(res, cfg, true)
	}
	return c, err
}

// rankScaleRanks is the rank-scale mix: the quick scale campaign with the
// middle scale run twice, so the median operation lies inside the 2048-rank
// class and p90 inside the 8192-rank class.
var rankScaleRanks = []int{512, 2048, 2048, 8192}

func setupRankScale(seed uint64) (campaign, error) {
	c := &driverCampaign{name: "rank-scale", workers: 1}
	for _, r := range rankScaleRanks {
		if _, err := experiments.ScaleConfig(r, false, seed); err != nil {
			return nil, err
		}
		c.ids = append(c.ids, fmt.Sprintf("%dranks", r))
	}
	c.configs = func() []driver.Config {
		cfgs := make([]driver.Config, len(rankScaleRanks))
		for i, r := range rankScaleRanks {
			cfgs[i], _ = experiments.ScaleConfig(r, false, seed) // checked above
		}
		return cfgs
	}
	// Warm-up: the smallest scale once.
	cfg := c.configs()[0]
	res, err := driver.Run(cfg)
	if err == nil {
		err = checkRun(res, cfg, false)
	}
	return c, err
}

func (c *driverCampaign) round(tr *tracer) *roundResult {
	r := newRound()
	cfgs := c.configs()
	op := tr.op()
	root := tr.begin("harness.Run", -1, op)
	specs := make([]harness.Spec[*driver.Result], len(cfgs))
	cpuMS := make([]float64, len(cfgs)) // each spec writes only its own slot
	for i := range cfgs {
		i, cfg := i, cfgs[i]
		specs[i] = harness.Spec[*driver.Result]{
			ID: c.ids[i],
			Run: func(m *harness.Meter) (*driver.Result, error) {
				id := tr.begin("driver.Run", root, op)
				sw := startWatch()
				run := cfg
				run.Interrupt = m.Aborted
				res, err := driver.Run(run)
				_, cpuMS[i] = sw.elapsed()
				var events int64
				if res != nil {
					events = res.Events
					m.AddEvents(res.Events)
				}
				tr.end(id, events)
				return res, err
			},
		}
	}
	results := harness.Run(harness.Exec{Workers: c.workers}, c.name, specs)
	tr.end(root, int64(len(specs)))

	h := fnv.New64a()
	summary := telemetry.NewTable(
		telemetry.StrCol("run"), telemetry.FloatCol("makespan"),
		telemetry.FloatCol("compute"), telemetry.FloatCol("comm"),
		telemetry.FloatCol("sync"), telemetry.FloatCol("rebalance"),
		telemetry.IntCol("events"), telemetry.IntCol("local_msgs"),
		telemetry.IntCol("remote_msgs"), telemetry.IntCol("migrations"),
		telemetry.IntCol("final_blocks"), telemetry.IntCol("rank_meta_b"),
		telemetry.FloatCol("wall_ms"),
	)
	var busy float64
	total := map[string]float64{}
	for i, res := range results {
		wallMS := float64(res.Wall.Nanoseconds()) / 1e6
		r.opsMS = append(r.opsMS, wallMS)
		r.opsCPUMS = append(r.opsCPUMS, cpuMS[i])
		r.runMS = append(r.runMS, wallMS)
		busy += wallMS
		err := res.Err
		if err == nil {
			err = checkRun(res.Value, cfgs[i], c.steps)
		}
		r.check(c.name+"/"+res.ID, err)
		v := res.Value
		if err != nil || v == nil {
			continue
		}
		total[res.ID] = v.Phases.Total()
		p := v.Phases
		summary.Append(res.ID, v.Makespan, p.Compute, p.Comm, p.Sync, p.Rebalance,
			v.Events, v.Census.LocalMsgs, v.Census.RemoteMsgs, v.Migrations,
			v.FinalBlocks, v.MaxRankMetaBytes, wallMS)
		if v.Steps != nil {
			hashTable(h, v.Steps)
		}
		r.exact["des.events"] += float64(v.Events)
		r.exact["des.msgs"] += float64(v.Census.LocalMsgs + v.Census.RemoteMsgs)
		r.exact["driver.epochs"] += float64(len(v.BlockHistory))
		r.exact["driver.migrations"] += float64(v.Migrations)
		r.exact["driver.rank_meta_kb"] = math.Max(r.exact["driver.rank_meta_kb"], float64(v.MaxRankMetaBytes)/1024)
		for _, n := range v.BlockHistory {
			r.exact["driver.block_epochs"] += float64(n)
		}
		for _, d := range v.PlacementWall {
			r.acc["driver.placement_ns"] += float64(d.Nanoseconds())
		}
	}
	if c.fig6 {
		var err error
		if total["cpl50"] >= total["baseline"] {
			err = fmt.Errorf("cpl50 total %.4fs does not beat baseline %.4fs", total["cpl50"], total["baseline"])
		}
		r.check(c.name+"/fig6-shape", err)
	}
	hashTable(h, summary)
	r.exact["result.hash"] = hashValue(h)
	r.acc["harness.busy_ms"] = busy
	r.acc["harness.workers"] = float64(min(c.workers, len(specs)))
	return r
}

// checkRun checks one driver run against quantities the driver accumulates
// on separate paths: the rank meters behind Phases, the per-step telemetry
// rows, the fabric census, and the redistribution bookkeeping.
func checkRun(res *driver.Result, cfg driver.Config, steps bool) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if res.Events <= 0 {
		return fmt.Errorf("no DES events")
	}
	p := res.Phases
	for _, x := range []float64{p.Compute, p.Comm, p.Sync, p.Rebalance} {
		if x < 0 || math.IsNaN(x) {
			return fmt.Errorf("bad phase time %v", x)
		}
	}
	if p.Total() > res.Makespan*(1+1e-9) {
		return fmt.Errorf("mean rank time %.6f exceeds makespan %.6f", p.Total(), res.Makespan)
	}
	if len(res.BlockHistory) != res.LBSteps+1 {
		return fmt.Errorf("%d epochs for %d redistributions", len(res.BlockHistory), res.LBSteps)
	}
	if res.Deltas.Handoffs != res.Migrations {
		return fmt.Errorf("%d handoffs for %d migrations", res.Deltas.Handoffs, res.Migrations)
	}
	if res.Census.LocalMsgs+res.Census.RemoteMsgs <= 0 {
		return fmt.Errorf("empty census")
	}
	if !steps {
		return nil
	}
	t := res.Steps
	nranks := cfg.RootDims[0] * cfg.RootDims[1] * cfg.RootDims[2]
	if t == nil || t.NumRows() != cfg.Steps*nranks {
		return fmt.Errorf("step table has wrong row count")
	}
	sent, recvd := sumInts(t.Ints("msgs_sent")), sumInts(t.Ints("msgs_recvd"))
	if sent != recvd {
		return fmt.Errorf("census: %d sends, %d receives", sent, recvd)
	}
	if fabric := res.Census.LocalMsgs + res.Census.RemoteMsgs; sent != fabric {
		return fmt.Errorf("census: %d sends in steps, %d in fabric census", sent, fabric)
	}
	want := []float64{p.Compute, p.Comm, p.Sync, p.Rebalance}
	var sum float64
	for i, col := range []string{"compute", "comm", "sync", "rebalance"} {
		got := sumFloats(t.Floats(col)) / float64(nranks)
		sum += got
		if !near(got, want[i], 1e-9) {
			return fmt.Errorf("phase %s: %.9f from steps, %.9f from meters", col, got, want[i])
		}
	}
	if !near(sum, p.Total(), 1e-9) {
		return fmt.Errorf("phases sum to %.9f, total %.9f", sum, p.Total())
	}
	return nil
}

func sumInts(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func sumFloats(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// near reports whether a and b agree to a relative tolerance.
func near(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// hashTable folds t into h, skipping the wall-clock columns
// experiments.NondetCols names.
func hashTable(h hash.Hash64, t *telemetry.Table) {
	skip := map[string]bool{}
	for _, n := range experiments.NondetCols {
		skip[n] = true
	}
	var b [8]byte
	for _, s := range t.Schema() {
		if skip[s.Name] {
			continue
		}
		h.Write([]byte(s.Name))
		switch s.Type {
		case telemetry.Int64:
			for _, v := range t.Ints(s.Name) {
				binary.LittleEndian.PutUint64(b[:], uint64(v))
				h.Write(b[:])
			}
		case telemetry.Float64:
			for _, v := range t.Floats(s.Name) {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		case telemetry.String:
			for _, v := range t.Strings(s.Name) {
				h.Write([]byte(v))
				h.Write([]byte{0})
			}
		}
	}
}

// hashValue returns the top 52 bits of h, which a JSON number holds exactly.
func hashValue(h hash.Hash64) float64 { return float64(h.Sum64() >> 12) }
