//! The `splash2-serve` workload: a closed loop of two client sessions
//! against an in-process `phastlane_serve` server with one worker and
//! persistence on.
//!
//! Each session submits a one-network spec, follows
//! `GET /jobs/<id>/events` until `stream_end`, then fetches
//! `GET /jobs/<id>/report`. The specs rotate through the ten Table 3
//! SPLASH2 benchmarks × {`optical4`, `electrical3`}: one session takes
//! the optical4 specs, the other the electrical3 ones. The spec grammar
//! cannot leave `patterns` empty, so each spec also carries one short,
//! low-rate synthetic cell next to its replay.

use crate::jobrun::traced_pass;
use crate::layers::{EndToEnd, Layers};
use crate::measure::{
    mean, median, peak_rss_mb, percentile, spread_note, ModelTotals, Ops, Outcome,
};
use crate::Opts;
use phastlane_lab::spec::expand;
use phastlane_lab::{run_lab, LabSpec};
use phastlane_netsim::obs::json::{self, JsonValue};
use phastlane_netsim::rng::derive_stream;
use phastlane_serve::{client, start, ServerConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The Table 3 benchmarks, in the order specs rotate through them.
const BENCHMARKS: [&str; 10] = [
    "Barnes",
    "Cholesky",
    "FFT",
    "LU",
    "Ocean",
    "Radix",
    "Raytrace",
    "Water-NSquared",
    "Water-Spatial",
    "FMM",
];

/// The two networks every benchmark is replayed on.
const NETS: [&str; 2] = ["optical4", "electrical3"];

/// Server start-ups before each round; `setup_s` is their median over
/// the run, spread over it so one slow stretch of the host does not
/// decide the figure.
const SETUP_REPS_PER_ROUND: usize = 10;

/// Fewest rounds in a run: 100 jobs, so p90 has at least ten samples
/// beyond it.
const MIN_ROUNDS: u64 = 5;

/// About how long one round takes on a 2-core x86 box at this commit.
/// The run's round count is fixed from `--seconds` by it, not by the
/// clock, so every run serves the same jobs and the server's job table
/// (which keeps every report) grows to the same size.
const NOMINAL_ROUND_SECONDS: u64 = 3;

/// One spec of the rotation. `scale` keeps an electrical3 replay near
/// a tenth of a second, several accept-poll periods (20 ms) long, so the
/// poll's quantum is a small share of a job's latency; the synthetic cell's window is the shortest in which
/// an electrical3 cell at this rate still counts as stable (a window
/// must be several times the packet latency long).
fn spec_text(seed: u64, combo: usize) -> String {
    let bench = BENCHMARKS[combo / 2];
    let net = NETS[combo % 2];
    format!(
        "name serve-{bench}-{net}\nmesh 8x8\nseed {}\nnets {net}\n\
         patterns uniform\nrates 0.02\nwarmup 50\nmeasure 400\ndrain 400\n\
         benchmarks {bench}\nscale 0.05\n",
        derive_stream(seed, combo as u64)
    )
}

/// Client-side timings of one served job.
#[derive(Debug, Clone, Copy)]
struct JobTiming {
    admit: f64,
    queue_wait: f64,
    run: f64,
    fetch: f64,
    latency: f64,
}

/// What one session saw in one round.
#[derive(Debug, Default)]
struct SessionLog {
    ops: Ops,
    jobs: Vec<JobTiming>,
    events_dropped: u64,
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// Submits one spec and follows it to its report, checking every
/// answer and the report bytes against `expected`.
fn serve_one(addr: &str, spec: &str, expected: &str, log: &mut SessionLog) {
    let t0 = Instant::now();
    let submitted = client::request(addr, "POST", "/jobs", Some(spec.as_bytes()));
    let t1 = Instant::now();
    let id = match &submitted {
        Ok((status, body)) => {
            let id = std::str::from_utf8(body)
                .ok()
                .and_then(|b| json::parse(b).ok())
                .and_then(|v| v.get("id").and_then(JsonValue::as_u64));
            log.ops
                .check((200..300).contains(status) && id.is_some(), || {
                    format!("POST /jobs answered {status}")
                });
            id
        }
        Err(e) => {
            log.ops.check(false, || format!("POST /jobs failed: {e}"));
            None
        }
    };
    let Some(id) = id else { return };

    let mut started = None;
    let mut ended = None;
    let streamed = client::stream(addr, &format!("/jobs/{id}/events"), |line| {
        let Ok(v) = json::parse(line) else { return };
        match v.get("event").and_then(JsonValue::as_str) {
            Some("lab_started") => {
                started.get_or_insert_with(Instant::now);
            }
            Some("stream_end") => {
                ended = Some(Instant::now());
                log.events_dropped += v.get("dropped").and_then(JsonValue::as_u64).unwrap_or(0);
            }
            _ => {}
        }
    });
    log.ops.check(
        matches!(streamed, Ok(200)) && started.is_some() && ended.is_some(),
        || format!("event stream of job {id}: {streamed:?}, started {started:?}, ended {ended:?}"),
    );
    let t3 = ended.unwrap_or_else(Instant::now);

    let fetched = client::request(addr, "GET", &format!("/jobs/{id}/report"), None);
    let t4 = Instant::now();
    let body = match fetched {
        Ok((status, body)) => {
            log.ops.check((200..300).contains(&status), || {
                format!("GET /jobs/{id}/report answered {status}")
            });
            body
        }
        Err(e) => {
            log.ops
                .check(false, || format!("GET /jobs/{id}/report failed: {e}"));
            return;
        }
    };
    log.ops.check(body == expected.as_bytes(), || {
        format!("served report of job {id} differs from in-process run_lab")
    });
    let completed = std::str::from_utf8(&body)
        .ok()
        .and_then(|b| json::parse(b).ok())
        .and_then(|v| {
            v.get("jobs")
                .and_then(JsonValue::as_arr)
                .map(|jobs| jobs.iter().all(|j| j.get("outcome").is_none()))
        });
    log.ops.check(completed == Some(true), || {
        format!("job {id} has a non-completed outcome")
    });
    let started = started.unwrap_or(t1);
    log.jobs.push(JobTiming {
        admit: secs(t0, t1),
        queue_wait: secs(t1, started),
        run: secs(started, t3),
        fetch: secs(t3, t4),
        latency: secs(t0, t4),
    });
}

fn server_config(state_dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 16,
        baseline_dir: state_dir.join("baselines"),
        state_dir: Some(state_dir.to_path_buf()),
        allow_shutdown: false,
    }
}

/// Set-up: seconds from server start until `/healthz` answers, on an
/// existing, empty state directory. The server is stopped again before
/// returning.
fn time_start_up(state_dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let server = start(server_config(state_dir))?;
    loop {
        match client::request(server.local_addr(), "GET", "/healthz", None) {
            Ok((200, _)) => break,
            _ if t.elapsed() > Duration::from_secs(30) => {
                return Err("server never answered /healthz".into())
            }
            _ => {}
        }
    }
    let elapsed = t.elapsed().as_secs_f64();
    server.join();
    Ok(elapsed)
}

/// Where the servers keep their state: under the build directory, so a
/// run writes nothing else in the checkout. Removed when the run ends.
fn state_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join(format!("perfbench-serve-{}", std::process::id()))
}

/// Runs the workload.
///
/// # Errors
///
/// If a server cannot start, a spec fails to run in-process, or the
/// state directory cannot be managed.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let root = state_root();
    let result = run_in(&root, opts);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(root: &Path, opts: &Opts) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    let mut ops = Ops::default();
    let mut layers = Layers {
        passes: 1,
        ..Layers::default()
    };

    // The reference for every served report: in-process run_lab of the
    // same spec.
    let texts: Vec<String> = (0..2 * BENCHMARKS.len())
        .map(|c| spec_text(opts.seed, c))
        .collect();
    let mut expected = Vec::with_capacity(texts.len());
    let mut model = ModelTotals::default();
    let (mut parse_expand, mut preflight, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    for text in &texts {
        let t = Instant::now();
        let spec = LabSpec::parse(text)?;
        let _ = expand(&spec);
        parse_expand.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let verdict = phastlane_analyze::preflight(&spec);
        preflight.push(t.elapsed().as_secs_f64());
        ops.check(verdict.is_ok(), || {
            format!("preflight rejected a spec: {verdict:?}")
        });

        let t = Instant::now();
        let report = run_lab(&spec, 1)?;
        let wall = t.elapsed().as_secs_f64();
        let mut jobs_wall = 0.0;
        for j in &report.jobs {
            *layers.job_s.entry(j.net.clone()).or_default() += j.wall_seconds;
            jobs_wall += j.wall_seconds;
        }
        layers.scheduler_overhead_s += wall - jobs_wall;
        let t = Instant::now();
        expected.push(report.canonical_json().to_string_pretty());
        encode.push(t.elapsed().as_secs_f64());
        model.add(&report);
    }
    layers.parse_expand_s = median(&parse_expand);
    layers.preflight_s = median(&preflight);
    layers.report_encode_s = median(&encode);

    // The measured closed loop, in rounds of the twenty specs: session 0
    // submits the optical4 ones, session 1 the electrical3 ones, each in
    // benchmark order. An optical job is shorter than a client's
    // report-to-resubmit turnaround, so it nearly always queues behind
    // the other session's electrical job. Every job's latency then
    // tracks an electrical service time and the sample is one smooth
    // spread. With both sessions mixing networks, the sample splits into
    // a fast optical half and a slow electrical half, and its median
    // sits on the gap between them and jumps from run to run.
    let server = start(server_config(&root.join("serve")))?;
    let addr = server.local_addr().to_string();
    let budget = if opts.trace {
        opts.seconds / 2
    } else {
        opts.seconds
    };
    let round_count = (budget.as_secs() / NOMINAL_ROUND_SECONDS).max(MIN_ROUNDS);
    let mut rounds = Vec::new();
    let mut jobs: Vec<JobTiming> = Vec::new();
    // The start-up servers share one state directory, made before any
    // is timed. With a fresh directory per start-up the figure followed
    // the file system instead: `mkdir` time doubled over ten
    // back-to-back runs.
    let setup_dir = root.join("setup");
    std::fs::create_dir_all(&setup_dir)
        .map_err(|e| format!("cannot create {}: {e}", setup_dir.display()))?;
    let mut setup = Vec::new();
    for _ in 0..round_count {
        for _ in 0..SETUP_REPS_PER_ROUND {
            setup.push(time_start_up(&setup_dir)?);
        }
        let t = Instant::now();
        let logs: Vec<SessionLog> = std::thread::scope(|scope| {
            let sessions: Vec<_> = (0..NETS.len())
                .map(|s| {
                    let (addr, texts, expected) = (&addr, &texts, &expected);
                    scope.spawn(move || {
                        let mut log = SessionLog::default();
                        for c in (s..texts.len()).step_by(NETS.len()) {
                            serve_one(addr, &texts[c], &expected[c], &mut log);
                        }
                        log
                    })
                })
                .collect();
            sessions
                .into_iter()
                .map(|h| h.join().expect("client session panicked"))
                .collect()
        });
        rounds.push(t.elapsed().as_secs_f64());
        for log in logs {
            ops.attempted += log.ops.attempted;
            ops.failed += log.ops.failed;
            layers.events_dropped += log.events_dropped;
            jobs.extend(log.jobs);
        }
    }
    let summary = server.join();
    layers.rejected = summary.rejected;
    let pick = |f: fn(&JobTiming) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
    let latency = pick(|j| j.latency);
    layers.admit_s = median(&pick(|j| j.admit));
    layers.queue_wait_s = median(&pick(|j| j.queue_wait));
    layers.run_s = median(&pick(|j| j.run));
    layers.report_fetch_s = median(&pick(|j| j.fetch));

    let e2e = EndToEnd {
        wall_s: mean(&rounds),
        setup_s: median(&setup),
        peak_rss_mb: peak_rss_mb(),
        job_latency_p50_s: percentile(&latency, 50.0),
        job_latency_p90_s: percentile(&latency, 90.0),
        job_samples: latency.len(),
        mean_latency_cycles: model.mean_latency(),
        saturation_rate: model.saturation_rate(),
        completion_cycles: model.replay_completion as f64,
    };
    let mut out = Outcome {
        notes: vec![
            format!(
                "{} rounds of {} jobs; job latency over {} jobs; {}",
                rounds.len(),
                texts.len(),
                e2e.job_samples,
                spread_note("set-up", &setup)
            ),
            format!(
                "serve p50: admit {:.4} s, queue wait {:.4} s, run {:.4} s, report {:.4} s",
                layers.admit_s, layers.queue_wait_s, layers.run_s, layers.report_fetch_s
            ),
        ],
        end_to_end: e2e.metrics(),
        ..Outcome::default()
    };
    if !opts.trace {
        out.ops = ops;
        return Ok(out);
    }

    // Traced pass: every spec again in-process, next to an untraced
    // run_lab of it, so both sides see the same machine load. Which of
    // the two goes first alternates, so neither always finds the other's
    // warm caches.
    let (mut untraced, mut traced) = (0.0, 0.0);
    for (i, (text, expected)) in texts.iter().zip(&expected).enumerate() {
        let spec = LabSpec::parse(text)?;
        if i % 2 == 1 {
            traced += traced_pass(&spec, expected, &mut layers, &mut ops)?;
        }
        let t = Instant::now();
        run_lab(&spec, 1)?;
        untraced += t.elapsed().as_secs_f64();
        if i % 2 == 0 {
            traced += traced_pass(&spec, expected, &mut layers, &mut ops)?;
        }
    }
    layers.trace_overhead = traced / untraced - 1.0;
    out.notes.push(format!(
        "traced in-process pass {traced:.4} s vs run_lab {untraced:.4} s"
    ));
    out.per_layer = layers.metrics("splash2-serve");
    out.ops = ops;
    Ok(out)
}
