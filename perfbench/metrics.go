package main

import "twopage/internal/experiments"

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what --trace 0 reports, in host time.
var endToEndMetrics = []metricDef{
	{"refs_per_s", "1/s"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// layerMetrics are what --trace 1 reports before the per-experiment
// times. A metric reads 0 on a workload that does not run its layer.
var layerMetrics = []metricDef{
	{"trace.decode_ns_per_ref", "ns/ref"},
	{"trace.bytes_per_ref", "B/ref"},
	{"workload.gen_ns_per_ref", "ns/ref"},
	{"policy.assign_ns_per_ref", "ns/ref"},
	{"policy.events_per_mref", "1/Mref"},
	{"tlb.access_ns_per_ref", "ns/ref"},
	{"tlb.hit_ratio", "ratio"},
	{"tlb.invalidations_per_mref", "1/Mref"},
	{"pagetable.ns_per_miss", "ns/miss"},
	{"pagetable.faults_per_mref", "1/Mref"},
	{"walk.ns_per_walk", "ns/walk"},
	{"walk.loads_per_walk", "loads/walk"},
	{"walk.pwc_hit_ratio", "ratio"},
	{"walk.mem_hit_ratio", "ratio"},
	{"wss.observe_ns_per_ref", "ns/ref"},
	{"core.pass_ns_per_ref", "ns/ref"},
	{"core.alloc_bytes_per_ref", "B/ref"},
	{"core.warm_ns_per_ref", "ns/ref"},
	{"core.merge_ms", "ms"},
	{"engine.warmup_ref_share", "ratio"},
	{"engine.queue_wait_ms", "ms"},
	{"engine.shard_imbalance", "ratio"},
	{"engine.memo_hit_ratio", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

// perLayerMetrics is layerMetrics plus one wall time per registered
// experiment, as suite-golden's traced run measures them.
func perLayerMetrics() []metricDef {
	defs := append([]metricDef(nil), layerMetrics...)
	for _, e := range experiments.All() {
		defs = append(defs, metricDef{experimentMetric(e.ID), "s"})
	}
	return defs
}

func experimentMetric(id string) string { return "experiments." + id + "_s" }
