package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// metricDef names one metric. BENCHMARK.json holds the same list (plus each
// end-to-end metric's regression bound); a test keeps the two identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports for every workload. An
// operation is the unit of work a user waits for in that workload: a
// figure, an exact solution, a cross-check verdict, a job, or a cached
// fetch.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},     // median process start to ready, over several fresh processes
	{Name: "latency_ms", Unit: "ms", Better: "lower"}, // median wall time of one operation
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the metrics a traced run reports. Every traced run reports
// all of them; a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{Name: "scenario.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.canon_calls", Unit: "count", Better: "lower"},
	{Name: "core.canon_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "core.canon_share", Unit: "ratio", Better: "lower"},
	{Name: "mc.states", Unit: "count", Better: "lower"},
	{Name: "mc.transitions", Unit: "count", Better: "lower"},
	{Name: "mc.generate_s", Unit: "s", Better: "lower"},
	{Name: "mc.gen_states_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mc.gen_bytes_per_state", Unit: "B", Better: "lower"},
	{Name: "mc.gen_allocs_per_state", Unit: "count", Better: "lower"},
	{Name: "mc.gen_cpu_util", Unit: "cores", Better: "higher"},
	{Name: "mc.solve_s", Unit: "s", Better: "lower"},
	{Name: "mc.solve_s.u5", Unit: "s", Better: "lower"},
	{Name: "mc.solve_s.u10", Unit: "s", Better: "lower"},
	{Name: "mc.solve_s.r5", Unit: "s", Better: "lower"},
	{Name: "mc.solve_s.r10", Unit: "s", Better: "lower"},
	{Name: "mc.solve_s.excl10", Unit: "s", Better: "lower"},
	{Name: "mc.solve_cpu_util", Unit: "cores", Better: "higher"},
	{Name: "study.sweep_s", Unit: "s", Better: "lower"},
	{Name: "study.reps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "study.cpu_util", Unit: "cores", Better: "higher"},
	{Name: "study.point_s_p50", Unit: "s", Better: "lower"},
	{Name: "study.point_s_max", Unit: "s", Better: "lower"},
	{Name: "study.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.rep_us_p50", Unit: "us", Better: "lower"},
	{Name: "sim.rep_us_p99", Unit: "us", Better: "lower"},
	{Name: "sim.firings_per_rep", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.allocs_per_rep", Unit: "count", Better: "lower"},
	{Name: "reward.observer_share", Unit: "ratio", Better: "lower"},
	{Name: "integrity.san_arm_s", Unit: "s", Better: "lower"},
	{Name: "integrity.direct_arm_s", Unit: "s", Better: "lower"},
	{Name: "integrity.live_arm_s", Unit: "s", Better: "lower"},
	{Name: "ituadirect.rep_us_p50", Unit: "us", Better: "lower"},
	{Name: "ituadirect.rep_us_p99", Unit: "us", Better: "lower"},
	{Name: "ituadirect.allocs_per_rep", Unit: "count", Better: "lower"},
	{Name: "inject.events_per_rep", Unit: "count", Better: "lower"},
	{Name: "inject.step_ns", Unit: "ns", Better: "lower"},
	{Name: "rsm.probes", Unit: "count", Better: "lower"},
	{Name: "rsm.probes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rsm.probe_us", Unit: "us", Better: "lower"},
	{Name: "rsm.allocs_per_probe", Unit: "count", Better: "lower"},
	{Name: "rsm.divergences", Unit: "count", Better: "lower"},
	{Name: "rsm.failed_reps", Unit: "count", Better: "lower"},
	{Name: "rsm.transport_msg_ns", Unit: "ns", Better: "lower"},
	{Name: "rsm.codec_ns", Unit: "ns", Better: "lower"},
	{Name: "groupcomm.broadcast_us", Unit: "us", Better: "lower"},
	{Name: "server.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms", Unit: "ms", Better: "lower"},
	{Name: "server.result_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stream_events", Unit: "count", Better: "lower"},
	{Name: "server.result_bytes", Unit: "B", Better: "lower"},
	{Name: "server.jobs", Unit: "count", Better: "higher"},
	{Name: "server.job_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "server.job_tail_pct", Unit: "%", Better: "higher"},
	{Name: "server.sweep_s", Unit: "s", Better: "lower"},
	{Name: "server.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.hit_submit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.hit_result_ms", Unit: "ms", Better: "lower"},
	{Name: "server.hits", Unit: "count", Better: "higher"},
	{Name: "server.hit_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "server.hit_tail_pct", Unit: "%", Better: "higher"},
	{Name: "go.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "go.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// measured is one reported value with its unit.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last on standard output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// fill builds the metric map of defs from values; a metric without a value,
// or whose value is not finite, reads 0.
func fill(defs []metricDef, values map[string]float64) map[string]measured {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = measured{Value: v, Unit: d.Unit}
	}
	return out
}

// record is one run's result as stored for -compare: what ran and what it
// printed.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}
