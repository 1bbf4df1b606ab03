//! The repository benchmark: named workloads driven through the public
//! API, end-to-end metrics from untraced runs, and per-layer metrics
//! from traced runs that time each call the benchmark makes into a
//! layer. See `perfbench/NOTES.md` for why each workload exists and
//! what each layer metric should move.

pub mod jobrun;
pub mod layers;
pub mod measure;
pub mod provenance;
pub mod serve;
pub mod sweep;
pub mod wrap;

use std::time::Duration;

/// The command-line contract: `--workload <name> --seed <n>
/// --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Workload name (see [`layers::WORKLOADS`]).
    pub workload: String,
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: Duration,
    /// Whether this is the traced run that gathers per-layer metrics.
    pub trace: bool,
}

impl Opts {
    /// Parses the arguments (without the program name).
    ///
    /// # Errors
    ///
    /// On a missing, unknown, or malformed argument.
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    if !layers::WORKLOADS.contains(&value.as_str()) {
                        return Err(format!(
                            "unknown workload {value:?}; known: {}",
                            layers::WORKLOADS.join(" ")
                        ));
                    }
                    workload = Some(value.clone());
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => {
                    let s: u64 = value.parse().map_err(|_| "bad --seconds")?;
                    if s == 0 || s > 3600 {
                        return Err("--seconds must be 1..=3600".into());
                    }
                    seconds = Some(Duration::from_secs(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}
