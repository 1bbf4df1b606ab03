//! The Figure 9 sweep workloads: an open-loop Bernoulli sweep through
//! in-process `run_lab` at one worker, the `lab run` default.
//!
//! `--seed` picks the spec seed from a pool of [`SEED_POOL`] values, so
//! the canonical report of every run can be checked against a digest
//! pinned in `pinned/digests.txt`.

use crate::jobrun::traced_pass;
use crate::layers::{EndToEnd, Layers};
use crate::measure::{
    fastest, fnv1a64, median, peak_rss_mb, percentile, spread_note, ModelTotals, Ops, Outcome,
};
use crate::Opts;
use phastlane_lab::runner::build_network;
use phastlane_lab::spec::expand;
use phastlane_lab::{run_lab, LabReport, LabSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// Distinct spec seeds a sweep draws from.
pub const SEED_POOL: u64 = 8;

/// Set-up repetitions before each pass; `setup_s` is their median over
/// the whole run. Spreading them over the run, rather than taking them
/// all at the start, keeps one slow stretch of the host from deciding
/// the figure.
const SETUP_REPS_PER_PASS: usize = 25;

/// Fewest timed `run_lab` passes in a run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// `sweep-optical`: both optical configurations across the four
/// Figure 9 patterns, from light load to past every pattern's knee
/// (bitrev and transpose saturate near 0.16, bitcomp near 0.24,
/// shuffle near 0.28). No rate sits on a knee: a cell there is stable
/// on some seeds and not on others, and its huge latency would swing
/// the mean over stable cells from seed to seed.
const SWEEP_OPTICAL: &str = "\
name sweep-optical
mesh 8x8
seed {seed}
nets optical4 optical8
patterns bitcomp bitrev shuffle transpose
rates 0.02 0.08 0.12 0.20 0.30 0.36
warmup 300
measure 1000
drain 2000
";

/// `sweep-electrical`: the electrical baseline on two of the patterns
/// over the same rate range, sized to a wall time like
/// `sweep-optical`'s (an electrical cycle costs tens of times an
/// optical one).
const SWEEP_ELECTRICAL: &str = "\
name sweep-electrical
mesh 8x8
seed {seed}
nets electrical3
patterns bitcomp transpose
rates 0.02 0.10 0.18 0.26
warmup 100
measure 500
drain 500
";

/// The spec text of `workload` for a benchmark seed.
pub fn spec_text(workload: &str, seed: u64) -> Option<String> {
    let template = match workload {
        "sweep-optical" => SWEEP_OPTICAL,
        "sweep-electrical" => SWEEP_ELECTRICAL,
        _ => return None,
    };
    Some(template.replace("{seed}", &(seed % SEED_POOL).to_string()))
}

/// The pinned `(digest, length)` of a workload's canonical report for a
/// pool index.
fn pinned(workload: &str, pool_index: u64) -> Option<(u64, usize)> {
    include_str!("../pinned/digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [w, i, d, n] if *w == workload && i.parse() == Ok(pool_index) => {
                    Some((u64::from_str_radix(d, 16).ok()?, n.parse().ok()?))
                }
                _ => None,
            }
        })
}

/// The canonical report bytes, as `lab run --report-out` writes them.
fn canonical(report: &LabReport) -> String {
    report.canonical_json().to_string_pretty()
}

/// Prints the digest lines to pin for every pool seed of `workload`.
///
/// # Errors
///
/// If the workload is not a sweep or its spec fails to run.
pub fn pin(workload: &str) -> Result<(), String> {
    for i in 0..SEED_POOL {
        let text = spec_text(workload, i).ok_or("not a sweep workload")?;
        let spec = LabSpec::parse(&text)?;
        let bytes = canonical(&run_lab(&spec, 1)?);
        println!(
            "{workload} {i} {:016x} {}",
            fnv1a64(bytes.as_bytes()),
            bytes.len()
        );
    }
    Ok(())
}

/// What the untraced `run_lab` passes measured.
#[derive(Default)]
struct Passes {
    walls: Vec<f64>,
    /// Each job's wall in every pass, by the job's place in the report.
    job_walls: Vec<Vec<f64>>,
    encode: Vec<f64>,
    job_s: BTreeMap<String, Vec<f64>>,
    overhead: Vec<f64>,
    /// The first pass's model figures and canonical bytes.
    first: Option<(ModelTotals, String)>,
}

impl Passes {
    /// One timed `run_lab` pass, its jobs' outcomes and its report
    /// checked against the pinned digest.
    fn run(
        &mut self,
        spec: &LabSpec,
        pinned: Option<(u64, usize)>,
        ops: &mut Ops,
    ) -> Result<(), String> {
        let t = Instant::now();
        let report = run_lab(spec, 1)?;
        let wall = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let bytes = canonical(&report);
        self.encode.push(t.elapsed().as_secs_f64());
        self.walls.push(wall);

        let mut per_net: BTreeMap<String, f64> = BTreeMap::new();
        self.job_walls.resize_with(report.jobs.len(), Vec::new);
        for (j, walls) in report.jobs.iter().zip(&mut self.job_walls) {
            ops.check(j.outcome.is_completed(), || {
                format!("job {} ended {}", j.index, j.outcome.label())
            });
            walls.push(j.wall_seconds);
            *per_net.entry(j.net.clone()).or_default() += j.wall_seconds;
        }
        self.overhead.push(wall - per_net.values().sum::<f64>());
        for (net, s) in per_net {
            self.job_s.entry(net).or_default().push(s);
        }
        let digest = (fnv1a64(bytes.as_bytes()), bytes.len());
        ops.check(pinned == Some(digest), || {
            format!(
                "canonical report {:016x}/{} does not match the pinned digest {pinned:?}",
                digest.0, digest.1
            )
        });
        if self.first.is_none() {
            let mut m = ModelTotals::default();
            m.add(&report);
            self.first = Some((m, bytes));
        }
        Ok(())
    }
}

/// Runs a sweep workload.
///
/// # Errors
///
/// If the workload's spec does not parse or a job cannot be built.
pub fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let text = spec_text(workload, opts.seed).ok_or("not a sweep workload")?;
    let mut ops = Ops::default();

    let mut setup = Vec::new();
    let mut parse_expand = Vec::new();
    let mut preflight = Vec::new();
    let spec = LabSpec::parse(&text)?;
    let pinned = pinned(workload, opts.seed % SEED_POOL);

    // A traced run alternates untraced and traced passes, so the
    // tracing overhead compares passes made under the same machine load.
    let mut passes = Passes::default();
    let mut layers = Layers::default();
    let mut traced_walls = Vec::new();
    let start = Instant::now();
    while passes.walls.len() < MIN_PASSES || start.elapsed() < opts.seconds {
        // Set-up: spec parse + expand + preflight + first network
        // built, the work `lab run --preflight` does before cycle 0.
        for _ in 0..SETUP_REPS_PER_PASS {
            let t = Instant::now();
            let spec = LabSpec::parse(&text)?;
            let jobs = expand(&spec);
            let pe = t.elapsed().as_secs_f64();
            let verdict = phastlane_analyze::preflight(&spec);
            let pf = t.elapsed().as_secs_f64() - pe;
            let first = jobs.first().ok_or("spec expands to no jobs")?;
            let net = build_network(&first.net, spec.mesh, spec.retry_limit)?;
            setup.push(t.elapsed().as_secs_f64());
            parse_expand.push(pe);
            preflight.push(pf);
            ops.check(verdict.is_ok(), || {
                format!("preflight rejected the spec: {verdict:?}")
            });
            drop(net);
        }
        passes.run(&spec, pinned, &mut ops)?;
        if opts.trace {
            let (_, reference) = passes.first.as_ref().expect("a pass ran");
            traced_walls.push(traced_pass(&spec, reference, &mut layers, &mut ops)?);
            layers.passes += 1;
        }
    }
    let (model, _) = passes.first.expect("a pass ran");
    // Every pass repeats the same deterministic jobs, so passes differ
    // only in how fast the host ran them. A shared 2-core x86 host was
    // seen to slow by up to 1.5x for stretches of 10-30 s. A mean, a
    // median or even a 10th percentile over a run's passes follows the
    // share of the run spent slow; the fastest repetition needs one
    // pass in a fast stretch. So a pass's wall and each job's latency
    // are their fastest repetition in the run, and the two latency
    // figures are percentiles over the matrix's jobs. A change to the
    // program moves every repetition, the fastest too.
    let wall = fastest(&passes.walls);
    let job_latency: Vec<f64> = passes.job_walls.iter().map(|w| fastest(w)).collect();
    let e2e = EndToEnd {
        wall_s: wall,
        setup_s: median(&setup),
        peak_rss_mb: peak_rss_mb(),
        job_latency_p50_s: percentile(&job_latency, 50.0),
        job_latency_p90_s: percentile(&job_latency, 90.0),
        job_samples: job_latency.len(),
        mean_latency_cycles: model.mean_latency(),
        saturation_rate: model.saturation_rate(),
        completion_cycles: model.synthetic_cycles as f64,
    };
    let mut out = Outcome {
        notes: vec![format!(
            "{} untraced run_lab passes of {} jobs; wall and job latency are the fastest pass; \
             job latency over {} jobs; {}; pass walls {}",
            passes.walls.len(),
            spec.job_count(),
            e2e.job_samples,
            spread_note("set-up", &setup),
            passes
                .walls
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        )],
        end_to_end: e2e.metrics(),
        ops,
        ..Outcome::default()
    };
    if !opts.trace {
        return Ok(out);
    }

    layers.parse_expand_s = median(&parse_expand);
    layers.report_encode_s = median(&passes.encode);
    layers.scheduler_overhead_s = median(&passes.overhead);
    layers.job_s = passes
        .job_s
        .iter()
        .map(|(n, v)| (n.clone(), median(v)))
        .collect();
    layers.preflight_s = median(&preflight);
    let traced_wall = fastest(&traced_walls);
    layers.trace_overhead = traced_wall / wall - 1.0;
    out.notes.push(format!(
        "{} traced passes; traced wall {traced_wall:.4} s vs untraced {wall:.4} s; pass walls {}",
        traced_walls.len(),
        traced_walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.per_layer = layers.metrics(workload);
    Ok(out)
}
