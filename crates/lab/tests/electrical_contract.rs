//! The electrical behaviour contract: the committed canonical report of
//! `results/specs/electrical-contract.lab`
//! (`tests/golden/electrical-contract.json`) must be reproduced
//! byte-for-byte at every worker count.
//!
//! The spec covers what `golden.lab` leaves out for the baseline router:
//! the 2-cycle `electrical2` pipeline, saturation, VCTM multicast trees
//! (SPLASH2 broadcasts), fault reroute, stall-abandon with VC release,
//! and NIC ageing at a permanently stuck router. If this test fails, the
//! router changed simulated behaviour — fix the code, do not re-record
//! the golden.

use phastlane_lab::{run_lab, LabSpec};
use std::path::Path;

fn manifest_path(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn electrical_contract_is_bit_identical_across_workers() {
    let spec_text =
        std::fs::read_to_string(manifest_path("../../results/specs/electrical-contract.lab"))
            .expect("read results/specs/electrical-contract.lab");
    let golden = std::fs::read_to_string(manifest_path("tests/golden/electrical-contract.json"))
        .expect("read committed electrical-contract golden");

    let spec = LabSpec::parse(&spec_text).expect("electrical-contract spec parses");
    for workers in [1usize, 2] {
        let report = run_lab(&spec, workers).expect("electrical-contract spec runs");
        let fresh = report.canonical_json().to_string_pretty();
        assert_eq!(
            fresh, golden,
            "electrical canonical export drifted from the committed contract \
             (workers={workers})"
        );
    }
}
