package main

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every untraced run, on every workload.
// Each has one meaning per workload; layers.json spells them out.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"plan_s", "s"},
	{"replan_s", "s"},
	{"rounds_per_s", "rounds/s"},
	{"step_ms", "ms"},
	{"sim_mJ_per_round", "mJ"},
	{"fresh_frac", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are printed by every traced run. A layer a workload does
// not drive reads 0 there.
var perLayerMetrics = []metricDef{
	{"topology.build_ms", "ms"},
	{"workload.generate_ms", "ms"},
	{"plan.instance_ms", "ms"},
	{"plan.instance_allocs", "count"},
	{"plan.instance_mb", "MB"},
	{"plan.pairs", "count"},
	{"plan.edges", "count"},
	{"plan.optimize_ms", "ms"},
	{"plan.optimize_allocs", "count"},
	{"sim.compile_ms", "ms"},
	{"plan.replan_instance_ms", "ms"},
	{"plan.reoptimize_ms", "ms"},
	{"plan.edges_solved", "count"},
	{"plan.edges_reused", "count"},
	{"plan.reuse_frac", "ratio"},
	{"sim.round_us", "us"},
	{"sim.round_allocs", "count"},
	{"sim.concurrent_round_us", "us"},
	{"plan.body_bytes", "bytes"},
	{"chaos.generate_ms", "ms"},
	{"m2m.session_build_ms", "ms"},
	{"m2m.step_quiet_us", "us"},
	{"m2m.step_allocs", "count"},
	{"m2m.step_replan_ms", "ms"},
	{"m2m.replans", "count"},
	{"m2m.detour_mJ", "mJ"},
	{"wire.replan_mJ", "mJ"},
	{"sim.other_mJ", "mJ"},
	{"m2m.detours", "count"},
	{"sim.collisions", "count"},
	{"sim.epoch_dropped", "count"},
	{"m2m.fresh", "count"},
	{"m2m.stale", "count"},
	{"m2m.starved", "count"},
	{"sim.deadline_misses", "count"},
	{"serve.decode_us", "us"},
	{"serve.step_local_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.create_hit_ms", "ms"},
	{"serve.create_miss_ms", "ms"},
	{"serve.plancache_hit_frac", "ratio"},
	{"serve.shed", "count"},
	{"serve.timeouts", "count"},
	{"serve.panics", "count"},
	{"load.late_p99_ms", "ms"},
	{"load.max_rate_rps", "req/s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}
