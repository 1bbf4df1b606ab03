//! The benchmark's metric sets: the end-to-end figures every workload
//! reports, and the per-layer figures a traced run gathers by timing
//! the calls it makes into each layer.
//!
//! Every workload prints the same names, so runs of different
//! workloads line up; a layer a workload never crosses reads 0 there
//! (no `core.optical8.cycles` are simulated on `sweep-electrical`).

use crate::jobrun::TracedJob;
use crate::measure::{metric, Metric};
use phastlane_netsim::obs::{Phase, PhaseBreakdown};
use std::collections::BTreeMap;

/// The network configurations the workloads run, each reported apart.
pub const NETWORKS: [&str; 3] = ["optical4", "optical8", "electrical3"];

/// The workload names.
pub const WORKLOADS: [&str; 3] = ["sweep-optical", "sweep-electrical", "splash2-serve"];

/// The simulator layer that steps a network configuration.
fn layer_of(net: &str) -> &'static str {
    if net.starts_with("electrical") {
        "electrical"
    } else {
        "core"
    }
}

/// The end-to-end figures of one untraced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Wall time of one pass over the workload: the fastest pass on the
    /// sweeps, the mean round wall on `splash2-serve`.
    pub wall_s: f64,
    /// Median time before the first simulated cycle.
    pub setup_s: f64,
    /// Peak resident memory of the process.
    pub peak_rss_mb: f64,
    /// Median job latency.
    pub job_latency_p50_s: f64,
    /// 90th-percentile job latency.
    pub job_latency_p90_s: f64,
    /// Jobs behind the two latency figures.
    pub job_samples: usize,
    /// Mean packet latency over the stable cells and replays.
    pub mean_latency_cycles: f64,
    /// Mean of the reports' group saturation rates.
    pub saturation_rate: f64,
    /// Sum of the jobs' completion cycles.
    pub completion_cycles: f64,
}

impl EndToEnd {
    /// The metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("wall_s", self.wall_s, "s"),
            metric("setup_s", self.setup_s, "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
            metric("job_latency_p50_s", self.job_latency_p50_s, "s"),
            metric("job_latency_p90_s", self.job_latency_p90_s, "s"),
            metric(
                "model.mean_latency_cycles",
                self.mean_latency_cycles,
                "cycles",
            ),
            metric(
                "model.saturation_rate",
                self.saturation_rate,
                "pkt/node/cycle",
            ),
            metric("model.completion_cycles", self.completion_cycles, "cycles"),
        ]
    }
}

/// What the wrappers saw for one network configuration.
#[derive(Debug, Clone, Default)]
pub struct NetLayer {
    /// Cycles stepped in cells below saturation (and in replays).
    pub low_steps: u64,
    /// Step nanoseconds in those cells.
    pub low_step_ns: u64,
    /// Cycles stepped in cells past saturation.
    pub sat_steps: u64,
    /// Step nanoseconds in those cells.
    pub sat_step_ns: u64,
    /// Accepted injects.
    pub injects: u64,
    /// Nanoseconds inside `inject`, accepted or not.
    pub inject_ns: u64,
    /// Per-destination deliveries.
    pub deliveries: u64,
    /// Harness driver time outside the wrapped calls.
    pub harness_self_ns: u64,
    /// Optical launch attempts: first launches plus retransmissions.
    pub launches: u64,
    /// Launches dropped inside the network.
    pub dropped: u64,
    /// Retransmitted launches.
    pub retransmitted: u64,
    /// Phase profile, merged over this configuration's jobs only.
    pub phases: Option<PhaseBreakdown>,
}

/// Per-layer figures of a traced run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Traced passes the wrapped-job totals cover (they are divided by it).
    pub passes: u64,
    /// Per-network wrapper totals.
    pub nets: BTreeMap<String, NetLayer>,
    /// Nanoseconds in the synthetic generators.
    pub generate_ns: u64,
    /// Nanoseconds in `generate_trace`.
    pub trace_gen_ns: u64,
    /// Per pass: sum of the lab's job wall times per network.
    pub job_s: BTreeMap<String, f64>,
    /// Per pass: `run_lab` wall minus its jobs' wall.
    pub scheduler_overhead_s: f64,
    /// Median spec parse + expand.
    pub parse_expand_s: f64,
    /// Median `preflight` call.
    pub preflight_s: f64,
    /// Median canonical report encode.
    pub report_encode_s: f64,
    /// Median `POST /jobs` round trip.
    pub admit_s: f64,
    /// Median wait from admission to the `lab_started` event.
    pub queue_wait_s: f64,
    /// Median time from `lab_started` to `stream_end`.
    pub run_s: f64,
    /// Median report fetch.
    pub report_fetch_s: f64,
    /// `429` answers.
    pub rejected: u64,
    /// Events shed, summed over the `stream_end` lines.
    pub events_dropped: u64,
    /// This workload's traced wall over its untraced wall, minus 1.
    pub trace_overhead: f64,
}

impl Layers {
    /// Folds one wrapped job into the per-network totals. A synthetic
    /// cell counts as past saturation when the lab marks it unstable.
    pub fn add_job(&mut self, job: &TracedJob) {
        let n = self.nets.entry(job.record.net.clone()).or_default();
        if job.record.stable == Some(false) {
            n.sat_steps += job.net.steps;
            n.sat_step_ns += job.net.step_ns;
        } else {
            n.low_steps += job.net.steps;
            n.low_step_ns += job.net.step_ns;
        }
        n.injects += job.net.injects;
        n.inject_ns += job.net.inject_ns;
        n.deliveries += job.net.deliveries;
        n.harness_self_ns += job.harness_self_ns();
        n.launches += job.stats.injected + job.stats.retransmitted;
        n.dropped += job.stats.dropped;
        n.retransmitted += job.stats.retransmitted;
        if let Some(p) = &job.record.phases {
            n.phases
                .get_or_insert_with(PhaseBreakdown::default)
                .merge(p);
        }
        self.generate_ns += job.generate_ns;
        self.trace_gen_ns += job.trace_gen_ns;
    }

    /// Every per-layer metric, in `BENCHMARK.json` order, for `workload`.
    pub fn metrics(&self, workload: &str) -> Vec<Metric> {
        let passes = self.passes.max(1) as f64;
        let per_pass_s = |ns: u64| ns as f64 / 1e9 / passes;
        let per_pass = |count: u64| count as f64 / passes;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let empty = NetLayer::default();
        let mut m = vec![
            metric("serve.admit_s.p50", self.admit_s, "s"),
            metric("serve.queue_wait_s.p50", self.queue_wait_s, "s"),
            metric("serve.run_s.p50", self.run_s, "s"),
            metric("serve.report_fetch_s.p50", self.report_fetch_s, "s"),
            metric("serve.rejected", self.rejected as f64, "count"),
            metric("serve.events_dropped", self.events_dropped as f64, "count"),
            metric("analyze.preflight_s", self.preflight_s, "s"),
            metric("lab.parse_expand_s", self.parse_expand_s, "s"),
        ];
        for net in NETWORKS {
            let v = self.job_s.get(net).copied().unwrap_or(0.0);
            m.push(metric(format!("lab.job_s.{net}"), v, "s"));
        }
        m.push(metric(
            "lab.scheduler_overhead_s",
            self.scheduler_overhead_s,
            "s",
        ));
        m.push(metric("lab.report_encode_s", self.report_encode_s, "s"));
        for net in NETWORKS {
            let n = self.nets.get(net).unwrap_or(&empty);
            m.push(metric(
                format!("harness.self_s.{net}"),
                per_pass_s(n.harness_self_ns),
                "s",
            ));
        }
        m.push(metric(
            "traffic.generate_s",
            per_pass_s(self.generate_ns),
            "s",
        ));
        m.push(metric(
            "traffic.trace_gen_s",
            per_pass_s(self.trace_gen_ns),
            "s",
        ));
        for net in NETWORKS {
            let n = self.nets.get(net).unwrap_or(&empty);
            let p = format!("{}.{net}", layer_of(net));
            m.push(metric(
                format!("{p}.step_ns_per_cycle.low"),
                ratio(n.low_step_ns, n.low_steps),
                "ns",
            ));
            m.push(metric(
                format!("{p}.step_ns_per_cycle.sat"),
                ratio(n.sat_step_ns, n.sat_steps),
                "ns",
            ));
            m.push(metric(
                format!("{p}.inject_ns"),
                ratio(n.inject_ns, n.injects),
                "ns",
            ));
            m.push(metric(
                format!("{p}.cycles"),
                per_pass(n.low_steps + n.sat_steps),
                "count",
            ));
            m.push(metric(format!("{p}.injects"), per_pass(n.injects), "count"));
            m.push(metric(
                format!("{p}.deliveries"),
                per_pass(n.deliveries),
                "count",
            ));
            if layer_of(net) == "core" {
                m.push(metric(
                    format!("{p}.retransmit_ratio"),
                    ratio(n.retransmitted, n.launches),
                    "ratio",
                ));
                m.push(metric(
                    format!("{p}.drop_ratio"),
                    ratio(n.dropped, n.launches),
                    "ratio",
                ));
            }
        }
        for net in NETWORKS {
            let phases = self.nets.get(net).and_then(|n| n.phases);
            for phase in Phase::ALL {
                let share = phases.map_or(0.0, |p| p.share(phase));
                m.push(metric(
                    format!("stage.{net}.{}.share", phase.name()),
                    share,
                    "ratio",
                ));
            }
        }
        for w in WORKLOADS {
            let v = if w == workload {
                self.trace_overhead
            } else {
                0.0
            };
            m.push(metric(format!("trace_overhead.{w}"), v, "ratio"));
        }
        m
    }
}
