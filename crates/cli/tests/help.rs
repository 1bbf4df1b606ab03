//! `--help` and `-h` on every subcommand print the usage and exit 0
//! without doing anything else: no simulation, no listening server, no
//! files written. Each case runs the real binary in an empty directory
//! and fails if it is still running after a deadline.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phastlane-help-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `phastlane args..` in `dir`; returns its stdout once it exits
/// successfully within the deadline.
fn run_help(dir: &Path, args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_phastlane"))
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn phastlane");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!(
                "`phastlane {}` was still running after 30 s",
                args.join(" ")
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect output");
    assert!(
        out.status.success(),
        "`phastlane {}` failed",
        args.join(" ")
    );
    String::from_utf8(out.stdout).expect("utf-8 usage")
}

/// `phastlane SUB --help` and `phastlane SUB -h` print the usage, exit
/// 0 and leave their working directory empty.
fn check_help(sub: &str) {
    for flag in ["--help", "-h"] {
        let dir = scratch_dir(&format!("{sub}{flag}"));
        // Options that would make the command write or bind something
        // if it ran.
        let args = [
            sub,
            flag,
            "--report-out",
            "report.json",
            "--trace-out",
            "trace.json",
            "--state-dir",
            "state",
            "--addr",
            "127.0.0.1:0",
        ];
        let out = run_help(&dir, &args);
        assert!(out.contains("USAGE:"), "`{sub} {flag}` printed: {out}");
        let left: Vec<_> = std::fs::read_dir(&dir)
            .expect("read scratch dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert!(left.is_empty(), "`{sub} {flag}` wrote {left:?}");
    }
}

macro_rules! help_tests {
    ($($name:ident => $sub:literal,)*) => {
        $(
            #[test]
            fn $name() {
                check_help($sub);
            }
        )*
    };
}

help_tests! {
    simulate_help => "simulate",
    compare_help => "compare",
    sweep_help => "sweep",
    chaos_help => "chaos",
    lab_help => "lab",
    serve_help => "serve",
    client_help => "client",
    analyze_help => "analyze",
    trace_help => "trace",
    trace_dump_help => "trace-dump",
    design_help => "design",
}
