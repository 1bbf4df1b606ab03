//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, one line per metric, and as its last line
//! the result object `{"correct", "attempted", "failed", "metrics"}`:
//! end-to-end metrics untraced, per-layer metrics with `--trace 1`.
//! `perfbench --pin <sweep workload>` prints the digest lines that
//! `pinned/digests.txt` holds for that workload.

use perfbench::measure::{Metric, Outcome};
use perfbench::{provenance, serve, sweep, Opts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, workload] = args.as_slice() {
        if flag == "--pin" {
            if let Err(e) = sweep::pin(workload) {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
            return;
        }
    }
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    println!("provenance {}", provenance::fingerprint(&opts));
    let outcome = match opts.workload.as_str() {
        "splash2-serve" => serve::run(&opts),
        w => sweep::run(w, &opts),
    };
    match outcome {
        Ok(outcome) => print_result(&opts, &outcome),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn print_result(opts: &Opts, outcome: &Outcome) {
    for note in &outcome.notes {
        println!("# {note}");
    }
    let metrics: &[Metric] = if opts.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("{:<44} {:>22} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<44} {:>22} ratio ({} of {} operations failed)",
        "error_rate",
        outcome.ops.error_rate(),
        outcome.ops.failed,
        outcome.ops.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.ops.failed == 0,
        outcome.ops.attempted,
        outcome.ops.failed,
        body.join(", ")
    );
}
