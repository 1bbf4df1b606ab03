//! The stamp every result carries, so numbers from different machines
//! or source trees are never compared silently: host (CPU model,
//! available parallelism, `rustc -V`), source (git commit when the
//! checkout is a repository, and a digest of the sources either way),
//! and build profile.

use crate::measure::fnv1a64;
use crate::Opts;
use phastlane_netsim::obs::json::JsonValue;
use std::path::Path;
use std::process::Command;

/// Output of a command's first line, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the relative path and bytes of every file under the
/// workspace sources and manifests, in sorted order: identifies the
/// code under test even when the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    if files.is_empty() {
        return "unknown".into();
    }
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", fnv1a64(&bytes))
}

/// The provenance object for a run, as one JSON line.
pub fn fingerprint(opts: &Opts) -> String {
    let s = |v: String| JsonValue::Str(v);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    JsonValue::Obj(vec![
        ("workload".into(), s(opts.workload.clone())),
        ("seed".into(), JsonValue::Uint(opts.seed)),
        ("seconds".into(), JsonValue::Uint(opts.seconds.as_secs())),
        ("trace".into(), JsonValue::Bool(opts.trace)),
        ("cpu".into(), s(cpu_model())),
        ("nproc".into(), JsonValue::Uint(nproc as u64)),
        (
            "rustc".into(),
            s(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "commit".into(),
            s(Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".into())),
        ),
        ("source_digest".into(), s(source_digest())),
        (
            "profile".into(),
            s(if cfg!(debug_assertions) {
                "debug".into()
            } else {
                "release".into()
            }),
        ),
    ])
    .to_string_compact()
}
