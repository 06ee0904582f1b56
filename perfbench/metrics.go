package main

import "strings"

// metricDef names one printed metric and its unit. The lists mirror
// BENCHMARK.json; the self-tests hold them equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed by the
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"index_bytes", "bytes"},
}

// perLayer is the traced run's ledger, grouped by layer. README.md maps
// each metric to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"http.self_us_p50", "us"},
	{"http.self_frac", "ratio"},
	{"server.handler_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"server.self_frac", "ratio"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.allocs_per_req", "count"},
	{"server.bytes_per_req", "bytes"},
	{"server.new_ms", "ms"},
	{"engine.us_p50", "us"},
	{"engine.us_p99", "us"},
	{"engine.stage.spatial_us", "us"},
	{"engine.unattributed_frac", "ratio"},
	{"labeling.labels_per_query", "count"},
	{"labeling.hit_ratio", "ratio"},
	{"rtree.nodes_per_query", "count"},
	{"rtree.leaves_per_query", "count"},
	{"rtree.entries_per_query", "count"},
	{"dataset.load_s", "s"},
	{"build.total_s", "s"},
	{"build.phase.labeling_s", "s"},
	{"build.phase.spatial_s", "s"},
	{"persist.open_ms", "ms"},
	{"updater.publishes", "count"},
	{"updater.ops_per_publish", "count"},
	{"updater.publish_us_mean", "us"},
	{"updater.ack_us_p50", "us"},
	{"updater.ack_us_p99", "us"},
	{"incr.merges_per_kop", "1/kop"},
	{"incr.splits_per_kop", "1/kop"},
	{"incr.cone_relabels_per_kop", "1/kop"},
	{"incr.relabeled_comps_per_kop", "1/kop"},
	{"incr.full_rebuilds", "count"},
	{"incr.folds", "count"},
	{"runtime.gc_cycles_per_kop", "1/kop"},
	{"runtime.gc_pause_us_total", "us"},
	{"runtime.heap_inuse_bytes", "bytes"},
	{"loadgen.lag_us_p99", "us"},
	{"trace.overhead_frac", "ratio"},
}

// unused lists, per workload, the metric prefixes of layers the
// workload never enters. They print as 0: engine-sweep calls the engine
// directly, only update-churn writes, and a dynamic index has no build
// phases.
var unused = map[string][]string{
	"engine-sweep": {"http.", "server.", "updater.", "incr.", "loadgen."},
	"serve-zipf":   {"updater.", "incr.", "loadgen."},
	"update-churn": {"build.phase."},
}

func notApplicable(workload, metric string) bool {
	for _, p := range unused[workload] {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}
