//! Small measurement helpers shared by the workloads: order statistics,
//! the pinned-report digest, peak memory, and the result shape every
//! workload returns.

/// Arithmetic mean of `v` (0 for an empty sample).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Smallest value of `v` (infinite for an empty sample).
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `v` (0 for an empty sample).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of `v` (0 for an empty sample).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `"<what> p10/p50/p90 a/b/c s over n"`: how a sample spreads.
pub fn spread_note(what: &str, v: &[f64]) -> String {
    format!(
        "{what} p10/p50/p90 {:.3e}/{:.3e}/{:.3e} s over {}",
        percentile(v, 10.0),
        percentile(v, 50.0),
        percentile(v, 90.0),
        v.len()
    )
}

/// 64-bit FNV-1a: the digest a canonical report is pinned by.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Operations attempted and failed: every lab job executed, every HTTP
/// request, and every output check counts as one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: failed: {}", what());
        }
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub ops: Ops,
    /// End-to-end metrics (untraced measurements).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Extra human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The deterministic model figures, accumulated over canonical reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelTotals {
    latency_sum: f64,
    latency_count: u64,
    saturation_sum: f64,
    saturation_groups: u64,
    /// Sum of the synthetic jobs' simulated cycles: a synthetic job
    /// completes when its measured packets have drained.
    pub synthetic_cycles: u64,
    /// Sum of the replay jobs' completion cycles.
    pub replay_completion: u64,
}

impl ModelTotals {
    /// Folds in one report: packet latency of every job not past
    /// saturation, the group saturation rates, and the completion
    /// cycles.
    pub fn add(&mut self, report: &phastlane_lab::LabReport) {
        for j in &report.jobs {
            if j.stable != Some(false) {
                if let Some(mean) = j.latency.mean() {
                    self.latency_sum += mean * j.latency.count() as f64;
                    self.latency_count += j.latency.count();
                }
            }
            match j.completion_cycle {
                Some(c) => self.replay_completion += c,
                None => self.synthetic_cycles += j.cycles,
            }
        }
        for g in &report.saturations {
            if let Some(rate) = g.saturation.rate() {
                self.saturation_sum += rate;
                self.saturation_groups += 1;
            }
        }
    }

    /// Pooled mean packet latency, in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.latency_count == 0 {
            0.0
        } else {
            self.latency_sum / self.latency_count as f64
        }
    }

    /// Mean group saturation rate.
    pub fn saturation_rate(&self) -> f64 {
        if self.saturation_groups == 0 {
            0.0
        } else {
            self.saturation_sum / self.saturation_groups as f64
        }
    }
}
