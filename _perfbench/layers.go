package main

import (
	"fmt"
	"io"
)

// perLayer computes the per-layer metrics of a traced run, plus the
// wall-clock counterparts of the end-to-end metrics from its untraced
// rounds. Every workload reports every metric; a layer the workload does
// not exercise reads 0. Exact counts come from the rounds themselves; time per unit of work
// comes from span durations (calls the benchmark makes) or from the CPU
// profile (layers reachable only inside driver.Run), divided by the traced
// rounds' exact counts.
func perLayer(plain, traced []*roundResult, exact map[string]float64, tr *tracer, p *profile, refMS float64, w io.Writer) []named {
	n := float64(len(traced))
	acc := map[string]float64{}
	var walls, cpus, runMS []float64
	for _, r := range traced {
		for k, v := range r.acc {
			acc[k] += v
		}
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpuS)
		runMS = append(runMS, r.runMS...)
	}
	var plainWalls, plainCPUs, plainOps []float64
	for _, r := range plain {
		plainWalls = append(plainWalls, r.wall.Seconds())
		plainCPUs = append(plainCPUs, r.cpuS)
		plainOps = append(plainOps, r.opsMS...)
	}
	spans := tr.totals()
	perUnit := func(name string, scale float64) float64 {
		s := spans[name]
		if s == nil || s.n == 0 {
			return 0
		}
		return s.selfNS / float64(s.n) * scale
	}
	perCall := func(name string, scale float64) float64 {
		s := spans[name]
		if s == nil || s.count == 0 {
			return 0
		}
		return s.selfNS / float64(s.count) * scale
	}
	cpu := func(layers ...string) float64 {
		var ns float64
		for _, l := range layers {
			ns += p.layerNS[l]
		}
		return ns
	}
	// per divides traced CPU time by n rounds of an exact per-round count.
	per := func(ns, count float64) float64 { return ratio(ns, count*n) }

	var ms []named
	add := func(name string, v float64, unit string) { ms = append(ms, named{name, v, unit}) }

	add("des.events", exact["des.events"], "count")
	add("des.msgs", exact["des.msgs"], "count")
	for _, l := range layers {
		add(l+".cpu_share", 100*ratio(p.layerNS[l], p.totalNS), "%")
	}
	add("sim.ns_per_event", per(cpu("sim"), exact["des.events"]), "ns")
	add("mpi.ns_per_msg", per(cpu("mpi"), exact["des.msgs"]), "ns")
	add("simnet.ns_per_msg", per(cpu("simnet"), exact["des.msgs"]), "ns")
	add("epoch.ns_per_block", per(cpu("driver", "mesh", "sfc", "placement", "cost"), exact["driver.block_epochs"]), "ns")
	add("driver.epochs", exact["driver.epochs"], "count")
	add("driver.migrations", exact["driver.migrations"], "count")
	add("driver.rank_meta_kb", exact["driver.rank_meta_kb"], "KiB")
	add("driver.placement_ms", acc["driver.placement_ns"]/n/1e6, "ms")
	add("harness.parallel_eff", ratio(acc["harness.busy_ms"], 1e3*sum(walls)*acc["harness.workers"]/n), "ratio")
	add("harness.run_p50_ms", percentile(runMS, 50), "ms")
	add("go.gc_cpu_share", 100*ratio(acc["go.gc_cpu_s"], acc["go.cpu_s"]), "%")
	add("go.alloc_mb", acc["go.alloc_b"]/n/1e6, "MB")
	add("go.mallocs", acc["go.mallocs"]/n, "count")
	for _, c := range []string{"baseline", "cdp", "cplx", "lpt", "zonal"} {
		add("placement."+c+".ns_per_block", perUnit("placement.Assign/"+c, 1), "ns")
	}
	add("placement.alloc_b_per_block", ratio(acc["placement.alloc_b"], acc["placement.blocks"]), "B")
	add("placement.makespan_over_lb", exact["placement.makespan_over_lb"], "ratio")
	add("mesh.views_ns_per_block", perUnit("mesh.BuildRankViews", 1), "ns")
	add("mesh.halo_per_owned", ratio(exact["mesh.halo"], exact["mesh.owned"]), "ratio")
	add("sfc.partition_ns_per_rank", perUnit("sfc.PartitionFromCounts", 1), "ns")
	add("ingest.rows_per_s", ratio(acc["rows"], spanDur(spans["ingest"])/1e9), "rows/s")
	add("telemetry.append_ns_per_row", perUnit("telemetry.Append", 1), "ns")
	add("colfile.write_ns_per_row", perUnit("colfile.WriteTable", 1), "ns")
	add("colfile.bytes_per_row", exact["colfile.bytes_per_row"], "B")
	add("colfile.open_ms", perCall("colfile.OpenBytes", 1e-6), "ms")
	add("colfile.chunks_decoded", exact["colfile.chunks_decoded"], "count")
	add("tql.chunks_skipped_ratio", exact["tql.chunks_skipped_ratio"], "ratio")
	add("tql.parse_us", perCall("tql.Parse", 1e-3), "us")
	add("tql.file_ns_per_row", perUnit("tql.ExecFileExplain", 1), "ns")
	add("tql.mem_ns_per_row", perUnit("tql.Run", 1), "ns")
	add("trace.overhead_pct", 100*(ratio(median(cpus), median(plainCPUs))-1), "%")
	add("host.ref_ms", refMS, "ms")
	add("wall.campaign_s", median(plainWalls), "s")
	add("wall.op_p50_ms", percentile(plainOps, 50), "ms")
	add("wall.op_p90_ms", percentile(plainOps, 90), "ms")

	fmt.Fprintf(w, "traced: %d rounds, %.0f profile samples' worth of CPU (%.2fs); untraced: %d rounds\n",
		len(traced), p.totalNS/1e7, p.totalNS/1e9, len(plain))
	for _, m := range ms {
		fmt.Fprintf(w, "%-30s %16.4f %s\n", m.name, m.value, m.unit)
	}
	return ms
}

func spanDur(s *spanTotals) float64 {
	if s == nil {
		return 0
	}
	return s.durNS
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
