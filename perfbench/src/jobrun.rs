//! One lab job, executed the way `phastlane_lab::runner::run_job`
//! executes it, but through the public pieces it is made of
//! (`runner::build_network`, `runner::watchdog_for` and the
//! `netsim::harness` drivers) so the network and the workload can be
//! wrapped in the timing types of [`crate::wrap`].
//!
//! The wrappers only observe, so the [`JobRecord`] equals the one
//! `run_job` returns (apart from wall-clock fields); the wrapper test
//! and every traced benchmark run check that.

use crate::layers::Layers;
use crate::measure::Ops;
use crate::wrap::{Ledger, NetCounters, TimedNetwork, TimedWorkload};
use phastlane_lab::report::JobOutcome;
use phastlane_lab::runner::{build_network, watchdog_for};
use phastlane_lab::spec::expand;
use phastlane_lab::{JobRecord, JobSpec, LabReport, LabSpec, Work};
use phastlane_netsim::fault::FaultPlan;
use phastlane_netsim::geometry::Mesh;
use phastlane_netsim::harness::{
    run_synthetic_watched, run_trace_guarded, SyntheticOptions, TraceOptions,
};
use phastlane_netsim::network::Network;
use phastlane_netsim::obs::PhaseProfiler;
use phastlane_netsim::stats::NetworkStats;
use phastlane_traffic::coherence::generate_trace;
use phastlane_traffic::splash2;
use phastlane_traffic::synthetic::BernoulliTraffic;
use std::time::Instant;

/// A job run through the wrappers, with what they measured.
#[derive(Debug, Clone)]
pub struct TracedJob {
    /// The job's record, as `run_job` would summarise it.
    pub record: JobRecord,
    /// Calls that crossed the network wrapper.
    pub net: NetCounters,
    /// The packet ledger after the harness returned.
    pub ledger: Ledger,
    /// The network's cumulative counters after the run.
    pub stats: NetworkStats,
    /// Nanoseconds the synthetic generator ran (0 for a replay).
    pub generate_ns: u64,
    /// Nanoseconds `generate_trace` took (0 for a synthetic job).
    pub trace_gen_ns: u64,
    /// Nanoseconds of the harness driver call as a whole.
    pub drive_ns: u64,
}

impl TracedJob {
    /// The driver's own time: its wall minus everything the wrappers
    /// attribute to the network and the generator.
    pub fn harness_self_ns(&self) -> u64 {
        self.drive_ns.saturating_sub(
            self.net.step_ns + self.net.inject_ns + self.net.drain_ns + self.generate_ns,
        )
    }
}

/// Runs `job` of `spec` through the wrappers. With `profile_every`, a
/// [`PhaseProfiler`] sampling one cycle in that many is attached to
/// this job's network alone (a spec's own `profile` key also attaches
/// one, as the lab does).
///
/// # Errors
///
/// On an unknown network or benchmark, or a spec with `sabotage`
/// entries, which this runner does not reproduce.
pub fn run_job_traced(
    spec: &LabSpec,
    job: &JobSpec,
    profile_every: Option<u32>,
) -> Result<TracedJob, String> {
    if !spec.sabotage.is_empty() {
        return Err("sabotaged specs are not supported by the traced runner".into());
    }
    let wall_start = Instant::now();
    // Same retry policy and fault plan as the lab's job builder.
    let retry_limit = spec
        .retry_limit
        .or_else(|| (job.intensity > 0.0).then_some(50));
    let mut net = TimedNetwork::new(build_network(&job.net, spec.mesh, retry_limit)?);
    if job.intensity > 0.0 {
        let plan = FaultPlan::random(spec.mesh, job.fault_seed, job.intensity);
        net.set_fault_plan(plan, job.fault_seed);
    }
    let stride = profile_every.or((spec.profile > 0).then_some(spec.profile));
    if let Some(every) = stride {
        net.set_phase_profiler(PhaseProfiler::enabled(every));
    }
    let watchdog = watchdog_for(spec, job, None);

    let (mut record, drive_ns, generate_ns, trace_gen_ns) = match &job.work {
        Work::Synthetic { pattern, rate } => {
            let mut workload =
                TimedWorkload::new(BernoulliTraffic::new(spec.mesh, *pattern, *rate, job.seed));
            let opts = SyntheticOptions {
                warmup: spec.warmup,
                measure: spec.measure,
                drain: spec.drain,
            };
            let drive_start = Instant::now();
            let r = run_synthetic_watched(&mut net, &mut workload, opts, watchdog);
            let drive_ns = nanos(drive_start);
            let stable = r.unfinished == 0 && r.delivered_rate >= 0.90 * r.offered_rate;
            let interrupted = r.interrupt.is_some();
            let record = JobRecord {
                index: job.index,
                net: job.net.clone(),
                pattern: Some(pattern.name().to_string()),
                rate: Some(*rate),
                benchmark: None,
                intensity: job.intensity,
                replica: job.replica,
                seed: job.seed,
                cycles: r.perf.cycles,
                latency: r.latency,
                energy_pj: r.energy.total_pj(),
                offered_rate: Some(r.offered_rate),
                accepted_rate: Some(r.accepted_rate),
                delivered_rate: Some(r.delivered_rate),
                completion_cycle: None,
                unfinished: r.unfinished,
                undeliverable: r.undeliverable,
                timed_out: interrupted,
                stable: if interrupted { None } else { Some(stable) },
                outcome: match &r.interrupt {
                    Some(i) => JobOutcome::TimedOut { reason: i.reason() },
                    None => JobOutcome::Completed,
                },
                wall_seconds: 0.0,
                phases: r.perf.phases,
            };
            (record, drive_ns, workload.generate_ns, 0)
        }
        Work::Replay { benchmark } => {
            let mut profile = splash2::benchmark(benchmark)
                .ok_or_else(|| format!("unknown benchmark {benchmark:?}"))?;
            profile.misses_per_core =
                ((profile.misses_per_core as f64 * spec.scale).round() as usize).max(2);
            if spec.mesh != Mesh::PAPER {
                profile.active_cores = profile.active_cores.min(spec.mesh.nodes());
            }
            profile.seed = job.seed;
            let t = Instant::now();
            let trace = generate_trace(spec.mesh, &profile);
            let trace_gen_ns = nanos(t);
            let opts = TraceOptions {
                max_cycles: spec.max_cycles,
            };
            let drive_start = Instant::now();
            let r = run_trace_guarded(&mut net, &trace, opts, None, watchdog);
            let drive_ns = nanos(drive_start);
            let record = JobRecord {
                index: job.index,
                net: job.net.clone(),
                pattern: None,
                rate: None,
                benchmark: Some(benchmark.clone()),
                intensity: job.intensity,
                replica: job.replica,
                seed: job.seed,
                cycles: r.perf.cycles,
                latency: r.latency,
                energy_pj: r.energy.total_pj(),
                offered_rate: None,
                accepted_rate: None,
                delivered_rate: None,
                completion_cycle: Some(r.completion_cycle),
                unfinished: 0,
                undeliverable: r.undeliverable,
                timed_out: r.timed_out,
                stable: None,
                outcome: match &r.interrupt {
                    Some(i) => JobOutcome::TimedOut { reason: i.reason() },
                    None => JobOutcome::Completed,
                },
                wall_seconds: 0.0,
                phases: r.perf.phases,
            };
            (record, drive_ns, 0, trace_gen_ns)
        }
    };
    record.wall_seconds = wall_start.elapsed().as_secs_f64();
    Ok(TracedJob {
        record,
        net: net.counters(),
        ledger: net.ledger(),
        stats: net.stats(),
        generate_ns,
        trace_gen_ns,
        drive_ns,
    })
}

/// Runs every job of `spec` serially through the wrappers, as
/// `run_lab` does at one worker, each network with its own phase
/// profiler. Folds what the wrappers saw into `layers`, and counts as
/// operations each job's packet-ledger check and the check that the
/// canonical report equals `reference`. Returns the wall in seconds.
///
/// # Errors
///
/// As [`run_job_traced`].
pub fn traced_pass(
    spec: &LabSpec,
    reference: &str,
    layers: &mut Layers,
    ops: &mut Ops,
) -> Result<f64, String> {
    let t = Instant::now();
    let jobs = expand(spec);
    let mut records = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let traced = run_job_traced(spec, job, Some(PhaseProfiler::DEFAULT_SAMPLE_EVERY))?;
        let ledger = traced.ledger;
        ops.check(ledger.closes(), || {
            format!(
                "{} job {} packet accounting does not close: {ledger:?}",
                spec.name, job.index
            )
        });
        layers.add_job(&traced);
        records.push(traced.record);
    }
    let report = LabReport::new(spec.clone(), records, 1, 0.0);
    let wall = t.elapsed().as_secs_f64();
    ops.check(
        report.canonical_json().to_string_pretty() == reference,
        || {
            format!(
                "traced canonical report of {} differs from run_lab",
                spec.name
            )
        },
    );
    Ok(wall)
}

fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
