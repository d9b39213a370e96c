// Command perfbench is the repository benchmark. It runs one named workload
// closed loop for a fixed number of seconds, checks every operation's output
// against an oracle that does not share the checked code path, and prints
// the workload's metrics as one JSON object on the last line of stdout.
//
// Usage (from the repository root):
//
//	bash _perfbench/run.sh --workload rebalance-scale --seed 7 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced rounds. --trace 1
// runs untraced rounds for the first half of the time and traced rounds
// (spans around every call into the program plus a CPU profile folded by
// package) for the second half, and reports the per-layer metrics. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers is the benchmark's thread budget: GOMAXPROCS and the widest
// harness fan-out.
const workers = 2

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// minRefs is the fewest reference-kernel timings a run takes the median
// of: one before each set-up and round, and more at the end of runs with
// few long rounds.
const minRefs = 9

// campaign is one workload's set-up state. round runs the workload's timed
// campaign once: every operation is timed, checked and counted.
type campaign interface {
	round(tr *tracer) *roundResult
}

// workload names a campaign and how to set it up from a seed. Workloads
// whose operations are single calls or queries run at least minOps of them,
// so that ten lie beyond p90.
type workload struct {
	name   string
	setup  func(seed uint64) (campaign, error)
	minOps int
}

var workloads = []workload{
	{"sedov-campaign", setupSedov, 0},
	{"rank-scale", setupRankScale, 0},
	{"rebalance-scale", setupRebalance, 100},
	{"telemetry-query", setupTelemetry, 100},
}

// roundResult is what one round reports.
type roundResult struct {
	wall      time.Duration
	cpuS      float64   // process CPU time of the round, s
	refMS     float64   // CPU time of the reference kernel run just before the round, ms
	opsMS     []float64 // latency of each operation, ms
	opsCPUMS  []float64 // process CPU time of each operation, ms (sequential workloads)
	attempted int
	failed    int
	failures  []string
	// exact holds the round's deterministic counts: every round of one seed
	// must reproduce them bit for bit.
	exact map[string]float64
	// acc holds additive per-layer quantities that are not span durations.
	acc map[string]float64
	// runMS holds the wall time of each harness run, ms.
	runMS []float64
}

func newRound() *roundResult {
	return &roundResult{exact: map[string]float64{}, acc: map[string]float64{}}
}

// check records one operation's outcome: an error is a failed operation.
func (r *roundResult) check(op string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, op+": "+err.Error())
		}
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of stdout.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time per run, seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("trace-dir", ".bench_build/trace", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(workers)
	rep, err := measure(*w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// measure sets the workload up setupReps times, runs rounds until the
// budget is spent, and assembles the report.
func measure(w workload, seed uint64, budget time.Duration, traced bool, traceDir string, stdout io.Writer) (*report, error) {
	var c campaign
	var setups, refs []float64
	for i := 0; i < setupReps; i++ {
		c = nil
		runtime.GC()
		refs = append(refs, reference())
		sw := startWatch()
		var err error
		c, err = w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		_, cpuMS := sw.elapsed()
		setups = append(setups, cpuMS/1e3)
	}

	var plain, withTrace []*roundResult
	var tr *tracer
	var prof *profile
	var err error
	start := time.Now()
	if !traced {
		plain, err = rounds(c, nil, nil, start.Add(budget), w.minOps)
	} else {
		plain, err = rounds(c, nil, nil, start.Add(budget/2), 0)
		if err == nil {
			tr, prof = newTracer(), newProfile()
			withTrace, err = rounds(c, tr, prof, start.Add(budget), 0)
		}
	}
	if err != nil {
		return nil, err
	}
	all := append(append([]*roundResult(nil), plain...), withTrace...)

	rep := &report{Metrics: map[string]metric{}}
	for _, r := range all {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
	}
	exact, err := sameExact(all)
	if err != nil { // a round that drifted from the first is a failed operation
		rep.Failed++
		rep.Attempted++
		fmt.Fprintf(stdout, "FAILED %v\n", err)
	}
	for _, r := range all {
		for _, f := range r.failures {
			fmt.Fprintf(stdout, "FAILED %s\n", f)
		}
	}
	rep.Correct = rep.Failed == 0

	fmt.Fprintf(stdout, "workload %s seed %d: %d rounds (%d traced), %d operations, %d failed\n",
		w.name, seed, len(all), len(withTrace), rep.Attempted, rep.Failed)
	printExact(stdout, exact)
	for _, r := range all {
		refs = append(refs, r.refMS)
	}
	for len(refs) < minRefs {
		refs = append(refs, reference())
	}
	refMS := median(refs)
	fmt.Fprintf(stdout, "reference kernel: median %.3f ms thread CPU over %d calls, quartiles %.3f-%.3f (nominal %.0f ms)\n",
		refMS, len(refs), percentile(refs, 25), percentile(refs, 75), refNominalMS)
	if !traced {
		for _, m := range endToEnd(setups, plain, refNominalMS/refMS, stdout) {
			rep.Metrics[m.name] = metric{m.value, m.unit}
		}
	} else {
		if err := tr.write(traceDir, w.name, seed); err != nil {
			return nil, err
		}
		for _, m := range perLayer(plain, withTrace, exact, tr, prof, refMS, stdout) {
			rep.Metrics[m.name] = metric{m.value, m.unit}
		}
	}
	return rep, nil
}

// rounds runs rounds until the deadline has passed and at least minOps
// operations have run, and at least one round. With prof set, each round
// runs under the CPU profiler.
func rounds(c campaign, tr *tracer, prof *profile, deadline time.Time, minOps int) ([]*roundResult, error) {
	var out []*roundResult
	for ops := 0; len(out) == 0 || ops < minOps || time.Now().Before(deadline); {
		runtime.GC() // every round starts from the same heap, outside the timed window
		refMS := reference()
		before := readRuntime()
		sw := startWatch()
		var r *roundResult
		if prof == nil {
			r = c.round(tr)
		} else if err := prof.record(func() { r = c.round(tr) }); err != nil {
			return nil, err
		}
		wallMS, cpuMS := sw.elapsed()
		r.wall = time.Duration(wallMS * 1e6)
		r.cpuS = cpuMS / 1e3
		r.refMS = refMS
		after := readRuntime()
		r.acc["go.alloc_b"] = after.allocBytes - before.allocBytes
		r.acc["go.mallocs"] = after.mallocs - before.mallocs
		r.acc["go.gc_cpu_s"] = after.gcCPU - before.gcCPU
		r.acc["go.cpu_s"] = after.totalCPU - before.totalCPU
		out = append(out, r)
		ops += len(r.opsMS)
	}
	return out, nil
}

// sameExact checks that every round reproduced the first round's exact
// counts and returns them.
func sameExact(rs []*roundResult) (map[string]float64, error) {
	first := rs[0].exact
	for i, r := range rs[1:] {
		for k, v := range first {
			if r.exact[k] != v {
				return first, fmt.Errorf("round %d: exact count %s = %v, round 0 had %v", i+1, k, r.exact[k], v)
			}
		}
	}
	return first, nil
}

func printExact(w io.Writer, exact map[string]float64) {
	keys := make([]string, 0, len(exact))
	for k := range exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, exact[k]))
	}
	fmt.Fprintf(w, "exact: %s\n", strings.Join(parts, " "))
}

// named is one metric with its name.
type named struct {
	name  string
	value float64
	unit  string
}

// endToEnd computes the end-to-end metrics of untraced rounds. Times are
// process CPU time, which the host's steal from this virtual machine does
// not inflate, scaled by speed (nominal over measured reference-kernel
// time) so that the host running slower or faster for a while does not
// move them. Raw CPU and wall-clock figures are printed beside them.
func endToEnd(setups []float64, rs []*roundResult, speed float64, w io.Writer) []named {
	var cpus, walls, ops, opsWall []float64
	for _, r := range rs {
		cpus = append(cpus, r.cpuS)
		walls = append(walls, r.wall.Seconds())
		ops = append(ops, r.opsCPUMS...)
		opsWall = append(opsWall, r.opsMS...)
	}
	p90 := percentile(ops, 90)
	ms := []named{
		{"setup_s", median(setups), "s"},
		{"campaign_cpu_s", median(cpus), "s"},
		{"op_cpu_p50_ms", percentile(ops, 50), "ms"},
		{"op_cpu_p90_ms", p90, "ms"},
	}
	notes := []string{
		fmt.Sprintf("median of %d set-ups", len(setups)),
		fmt.Sprintf("median of %d rounds; wall median %.4f s", len(cpus), median(walls)),
		fmt.Sprintf("n=%d operations; wall p50 %.4f ms", len(ops), percentile(opsWall, 50)),
		fmt.Sprintf("n=%d operations, %d beyond p90; wall p90 %.4f ms", len(ops), beyond(ops, p90), percentile(opsWall, 90)),
	}
	for i := range ms {
		raw := ms[i].value
		ms[i].value *= speed
		notes[i] = fmt.Sprintf("CPU %.4f %s at host speed, %s", raw, ms[i].unit, notes[i])
	}
	ms = append(ms, named{"peak_rss_mb", peakRSSMB(), "MB"})
	notes = append(notes, "process peak resident set")
	for i, m := range ms {
		fmt.Fprintf(w, "%-15s %14.4f %-3s %s\n", m.name, m.value, m.unit, notes[i])
	}
	return ms
}

func beyond(xs []float64, p float64) int {
	n := 0
	for _, x := range xs {
		if x > p {
			n++
		}
	}
	return n
}

// peakRSSMB returns the process's peak resident set as the OS reports it.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a read of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, mallocs, gcCPU, totalCPU float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

// stopwatch measures wall time and process CPU time (user + system, all
// threads). CPU time excludes time the host stole from this virtual machine.
type stopwatch struct {
	wall time.Time
	cpu  float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPUMS()} }

// elapsed returns the wall and CPU milliseconds since the watch started.
func (s stopwatch) elapsed() (wallMS, cpuMS float64) {
	return float64(time.Since(s.wall).Nanoseconds()) / 1e6, processCPUMS() - s.cpu
}

func processCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// median returns the middle value (mean of the two middle values).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// guard runs f and turns a panic into an error, so a crashing call counts
// as a failed operation.
func guard(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}
