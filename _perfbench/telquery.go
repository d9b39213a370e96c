package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"amrtools/internal/colfile"
	"amrtools/internal/telemetry"
	"amrtools/internal/tql"
	"amrtools/internal/xrand"
)

// The synthetic step table: rows in the driver.Result.Steps schema, sorted
// by step, every rank once per step.
const (
	telRanks     = 4096
	telSteps     = 256
	telRows      = telRanks * telSteps
	telChunkRows = 16384 // 4 steps per chunk; telRows is a multiple
)

// stepCols holds the generated columns; the query oracle reads them
// directly.
type stepCols struct {
	step, rank, node, msgsSent, bytesSent, msgsRecvd []int64
	compute, comm, sync, rebalance                   []float64
}

func genStepCols(rng *xrand.RNG) *stepCols {
	c := &stepCols{}
	base := make([]float64, telRanks)
	for r := range base {
		base[r] = 2e-3 * rng.LogNormal(0, 0.25)
	}
	for s := 0; s < telSteps; s++ {
		for r := 0; r < telRanks; r++ {
			compute := base[r] * (1 + 0.1*rng.NormFloat64())
			msgs := int64(20 + rng.Intn(40))
			reb := 0.0
			if s%5 == 4 {
				reb = 1e-3 * rng.ExpFloat64()
			}
			c.step = append(c.step, int64(s))
			c.rank = append(c.rank, int64(r))
			c.node = append(c.node, int64(r/16))
			c.compute = append(c.compute, compute)
			c.comm = append(c.comm, 5e-4*rng.ExpFloat64())
			c.sync = append(c.sync, 3e-3-compute+1e-4*rng.ExpFloat64())
			c.rebalance = append(c.rebalance, reb)
			c.msgsSent = append(c.msgsSent, msgs)
			c.bytesSent = append(c.bytesSent, msgs*int64(8192+rng.Intn(8192)))
			c.msgsRecvd = append(c.msgsRecvd, int64(20+rng.Intn(40)))
		}
	}
	return c
}

var stepSchema = []telemetry.ColSpec{
	telemetry.IntCol("step"), telemetry.IntCol("rank"), telemetry.IntCol("node"),
	telemetry.FloatCol("compute"), telemetry.FloatCol("comm"),
	telemetry.FloatCol("sync"), telemetry.FloatCol("rebalance"),
	telemetry.IntCol("msgs_sent"), telemetry.IntCol("bytes_sent"),
	telemetry.IntCol("msgs_recvd"),
}

// queryKind is a query class of the mix.
type queryKind int

const (
	qMeta  queryKind = iota // metadata-only aggregate over a chunk-aligned step range
	qRange                  // selective step range with a value filter, pushdown
	qTopK                   // top-k over a step window
	qGroup                  // filter + group-by that no zone map can prune
	numKinds
)

var kindNames = [...]string{"meta", "range", "topk", "group"}

// query is one seeded query of the mix.
type query struct {
	kind   queryKind
	mem    bool // run through tql.Run on the in-memory table
	src    string
	lo, hi int64   // step window [lo, hi)
	x      float64 // value threshold
	want   answer
}

// telemetryQuery ingests the generated table (Append, WriteTable,
// OpenBytes) and then runs the seeded query mix, on the file and on the
// in-memory table.
type telemetryQuery struct {
	cols    *stepCols
	queries []query
}

// telMix is the number of queries of each class in a round, file path
// then in-memory path. In latency order the classes are meta < range <
// topk < group (file) < any in-memory query; of 40 queries, the file range
// class holds quantiles 0.25-0.6 (p50) and the file group-by class
// 0.75-0.95 (p90).
var telMix = []struct {
	kind queryKind
	mem  bool
	n    int
}{
	{qMeta, false, 10},
	{qRange, false, 14},
	{qTopK, false, 6},
	{qGroup, false, 8},
	{qRange, true, 1},
	{qGroup, true, 1},
}

func setupTelemetry(seed uint64) (campaign, error) {
	rng := xrand.New(seed)
	c := &telemetryQuery{cols: genStepCols(rng)}
	for _, m := range telMix {
		for i := 0; i < m.n; i++ {
			q := newQuery(m.kind, m.mem, rng)
			q.want = c.cols.expect(q)
			c.queries = append(c.queries, q)
		}
	}
	rng.Shuffle(len(c.queries), func(i, j int) { c.queries[i], c.queries[j] = c.queries[j], c.queries[i] })
	// Warm-up: one ingest and one query.
	r := newRound()
	if t, rd := c.ingest(nil, r); rd != nil {
		c.run(nil, r, c.queries[0], t, rd)
	}
	if r.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", r.failures[0])
	}
	return c, nil
}

func newQuery(k queryKind, mem bool, rng *xrand.RNG) query {
	q := query{kind: k, mem: mem}
	switch k {
	case qMeta:
		q.lo = int64(4 * rng.Intn(telSteps/4))
		q.hi = telSteps
		q.src = fmt.Sprintf("SELECT count(*) AS n, min(compute) AS lo, max(compute) AS hi, sum(bytes_sent) AS bytes FROM t WHERE step >= %d", q.lo)
	case qRange:
		q.lo = int64(2 * rng.Intn(telSteps/2)) // two steps, never across a chunk
		q.hi = q.lo + 2
		q.x = 2e-3 * (1.1 + 0.02*rng.Float64())
		q.src = fmt.Sprintf("SELECT rank, compute FROM t WHERE step >= %d AND step < %d AND compute > %g", q.lo, q.hi, q.x)
	case qTopK:
		q.lo = int64(4 * rng.Intn(telSteps/4-2))
		q.hi = q.lo + 8
		q.src = fmt.Sprintf("SELECT step, rank, sync FROM t WHERE step >= %d AND step < %d ORDER BY sync DESC LIMIT 10", q.lo, q.hi)
	case qGroup:
		q.x = 5e-4 * (4 + 0.1*rng.Float64())
		q.src = fmt.Sprintf("SELECT node, count(*) AS n, sum(sync) AS s FROM t WHERE comm > %g GROUP BY node", q.x)
	}
	return q
}

func (c *telemetryQuery) round(tr *tracer) *roundResult {
	r := newRound()
	t, rd := c.ingest(tr, r)
	if rd == nil {
		return r
	}
	decodes := rd.DecodeCount()
	h := fnv.New64a()
	for _, q := range c.queries {
		out := c.run(tr, r, q, t, rd)
		if out != nil {
			hashTable(h, out)
		}
	}
	r.exact["colfile.chunks_decoded"] = float64(rd.DecodeCount() - decodes)
	r.exact["result.hash"] = hashValue(h)
	r.exact["tql.chunks_skipped_ratio"] = r.acc["tql.chunks_skipped"] / r.acc["tql.chunks_total"]
	return r
}

// ingest appends every generated row, writes the table as a colfile into
// memory and opens it.
func (c *telemetryQuery) ingest(tr *tracer, r *roundResult) (*telemetry.Table, *colfile.Reader) {
	op := tr.op()
	root := tr.begin("ingest", -1, op)
	cols := c.cols
	t := telemetry.NewTable(stepSchema...)
	id := tr.begin("telemetry.Append", root, op)
	for i := 0; i < telRows; i++ {
		t.Append(cols.step[i], cols.rank[i], cols.node[i], cols.compute[i], cols.comm[i],
			cols.sync[i], cols.rebalance[i], cols.msgsSent[i], cols.bytesSent[i], cols.msgsRecvd[i])
	}
	tr.end(id, telRows)
	var buf bytes.Buffer
	buf.Grow(48 * telRows) // above the ~41 B/row written, so the buffer never regrows
	id = tr.begin("colfile.WriteTable", root, op)
	err := colfile.WriteTable(&buf, t, telChunkRows)
	tr.end(id, telRows)
	var rd *colfile.Reader
	if err == nil {
		id = tr.begin("colfile.OpenBytes", root, op)
		rd, err = colfile.OpenBytes(buf.Bytes())
		tr.end(id, 1)
	}
	tr.end(root, telRows)
	if err == nil && (t.NumRows() != telRows || rd.NumRows() != telRows || rd.NumChunks() != telRows/telChunkRows) {
		err = fmt.Errorf("ingested %d rows, file holds %d in %d chunks", t.NumRows(), rd.NumRows(), rd.NumChunks())
	}
	r.check("ingest", err)
	if err != nil {
		return nil, nil
	}
	r.exact["colfile.bytes_per_row"] = float64(buf.Len()) / telRows
	r.acc["rows"] += telRows
	return t, rd
}

// run executes one query and checks its answer against the oracle.
func (c *telemetryQuery) run(tr *tracer, r *roundResult, q query, t *telemetry.Table, rd *colfile.Reader) *telemetry.Table {
	op := tr.op()
	root := tr.begin("query/"+kindNames[q.kind], -1, op)
	sw := startWatch()
	var out *telemetry.Table
	var ex *tql.Explain
	err := guard(func() error {
		var err error
		if q.mem {
			id := tr.begin("tql.Run", root, op)
			out, err = tql.Run(q.src, map[string]*telemetry.Table{"t": t})
			tr.end(id, telRows)
			return err
		}
		id := tr.begin("tql.Parse", root, op)
		pq, err := tql.Parse(q.src)
		tr.end(id, 1)
		if err != nil {
			return err
		}
		id = tr.begin("tql.ExecFileExplain", root, op)
		out, ex, err = tql.ExecFileExplain(pq, rd)
		var scanned int64
		if ex != nil {
			scanned = int64(ex.ChunksScanned) * telChunkRows
		}
		tr.end(id, scanned)
		return err
	})
	ms, cpuMS := sw.elapsed()
	r.opsMS = append(r.opsMS, ms)
	r.opsCPUMS = append(r.opsCPUMS, cpuMS)
	tr.end(root, 1)
	if err == nil {
		err = q.want.verify(out)
	}
	if err == nil && ex != nil {
		if ex.ChunksScanned+ex.ChunksSkipped > ex.ChunksTotal {
			err = fmt.Errorf("explain: %d scanned + %d skipped of %d chunks", ex.ChunksScanned, ex.ChunksSkipped, ex.ChunksTotal)
		}
		r.acc["tql.chunks_skipped"] += float64(ex.ChunksSkipped)
		r.acc["tql.chunks_total"] += float64(ex.ChunksTotal)
	}
	path := "file"
	if q.mem {
		path = "mem"
	}
	r.check(fmt.Sprintf("%s query %q", path, q.src), err)
	if err != nil {
		return nil
	}
	return out
}

// answer is a query's expected output: named columns of values (integers
// are exact in a float64), compared to a relative tolerance.
type answer struct {
	names []string
	cols  [][]float64
	tol   float64
}

// expect computes q's answer in plain Go from the generated columns.
func (c *stepCols) expect(q query) answer {
	lo, hi := telRanks*int(q.lo), telRanks*int(q.hi) // rows of the step window
	switch q.kind {
	case qMeta:
		mn, mx, sum := math.Inf(1), math.Inf(-1), 0.0
		for i := lo; i < hi; i++ {
			mn, mx = math.Min(mn, c.compute[i]), math.Max(mx, c.compute[i])
			sum += float64(c.bytesSent[i])
		}
		// The footer answers sum chunk by chunk, so allow rounding.
		return answer{[]string{"n", "lo", "hi", "bytes"},
			[][]float64{{float64(hi - lo)}, {mn}, {mx}, {sum}}, 1e-9}
	case qRange:
		a := answer{names: []string{"rank", "compute"}, cols: make([][]float64, 2), tol: 0}
		for i := lo; i < hi; i++ {
			if c.compute[i] > q.x {
				a.cols[0] = append(a.cols[0], float64(c.rank[i]))
				a.cols[1] = append(a.cols[1], c.compute[i])
			}
		}
		return a
	case qTopK:
		rows := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, i)
		}
		sort.SliceStable(rows, func(a, b int) bool { return c.sync[rows[a]] > c.sync[rows[b]] })
		a := answer{names: []string{"step", "rank", "sync"}, cols: make([][]float64, 3), tol: 0}
		for _, i := range rows[:10] {
			a.cols[0] = append(a.cols[0], float64(c.step[i]))
			a.cols[1] = append(a.cols[1], float64(c.rank[i]))
			a.cols[2] = append(a.cols[2], c.sync[i])
		}
		return a
	case qGroup:
		counts := make([]float64, telRanks/16)
		sums := make([]float64, telRanks/16)
		for i := range c.comm {
			if c.comm[i] > q.x {
				counts[c.node[i]]++
				sums[c.node[i]] += c.sync[i]
			}
		}
		a := answer{names: []string{"node", "n", "s"}, cols: make([][]float64, 3), tol: 1e-12}
		for node := range counts {
			if counts[node] > 0 {
				a.cols[0] = append(a.cols[0], float64(node))
				a.cols[1] = append(a.cols[1], counts[node])
				a.cols[2] = append(a.cols[2], sums[node])
			}
		}
		return a
	}
	panic("unknown query kind")
}

// verify compares a query's output with its expected answer.
func (a answer) verify(t *telemetry.Table) error {
	if t == nil {
		return fmt.Errorf("no result")
	}
	for i, name := range a.names {
		if !t.HasCol(name) {
			return fmt.Errorf("missing column %q", name)
		}
		if t.NumRows() != len(a.cols[i]) {
			return fmt.Errorf("%d rows, want %d", t.NumRows(), len(a.cols[i]))
		}
		for row, want := range a.cols[i] {
			if got := t.NumericAt(name, row); !near(got, want, a.tol) {
				return fmt.Errorf("column %s row %d: got %v, want %v", name, row, got, want)
			}
		}
	}
	return nil
}
