//! The forwarding wrappers must be invisible: every trait method the
//! lab uses reaches the wrapped network, and a lab job run through them
//! produces the record `run_job` produces.

use perfbench::jobrun::run_job_traced;
use perfbench::layers::{EndToEnd, Layers};
use perfbench::wrap::{TimedNetwork, TimedWorkload};
use phastlane_lab::runner::{build_network, run_job};
use phastlane_lab::spec::expand;
use phastlane_lab::{JobRecord, LabSpec};
use phastlane_netsim::fault::{FailedDelivery, Fault, FaultKind, FaultPlan};
use phastlane_netsim::geometry::{Mesh, NodeId};
use phastlane_netsim::harness::SyntheticWorkload;
use phastlane_netsim::network::Network;
use phastlane_netsim::obs::json::{self, JsonValue};
use phastlane_netsim::obs::{FlightRecorder, PhaseBreakdown, PhaseProfiler, TraceBuffer};
use phastlane_netsim::packet::{Delivery, NewPacket, PacketId};
use phastlane_netsim::stats::{EnergyReport, NetworkStats};
use phastlane_netsim::telemetry::LinkCounters;
use std::sync::{Arc, Mutex};

/// A network that records which trait methods reached it and answers
/// with recognisable values.
struct Probe {
    calls: Arc<Mutex<Vec<&'static str>>>,
    fault_seed: Arc<Mutex<Option<(usize, u64)>>>,
    next_id: u64,
}

impl Probe {
    fn log(&self, call: &'static str) {
        self.calls.lock().unwrap().push(call);
    }
}

impl Network for Probe {
    fn name(&self) -> String {
        self.log("name");
        "probe".into()
    }
    fn mesh(&self) -> Mesh {
        Mesh::new(4, 4)
    }
    fn cycle(&self) -> u64 {
        self.log("cycle");
        41
    }
    fn inject(&mut self, _packet: NewPacket) -> Option<PacketId> {
        self.log("inject");
        self.next_id += 1;
        Some(PacketId(self.next_id - 1))
    }
    fn step(&mut self) {
        self.log("step");
    }
    fn drain_deliveries(&mut self) -> Vec<Delivery> {
        self.log("drain_deliveries");
        vec![Delivery {
            packet: PacketId(0),
            src: NodeId(0),
            dest: NodeId(5),
            injected_cycle: 1,
            delivered_cycle: 9,
        }]
    }
    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        self.log("drain_deliveries_into");
        out.push(Delivery {
            packet: PacketId(1),
            src: NodeId(0),
            dest: NodeId(5),
            injected_cycle: 1,
            delivered_cycle: 9,
        });
    }
    fn in_flight(&self) -> usize {
        self.log("in_flight");
        7
    }
    fn energy(&self) -> EnergyReport {
        self.log("energy");
        EnergyReport {
            dynamic_pj: 1.5,
            ..EnergyReport::default()
        }
    }
    fn stats(&self) -> NetworkStats {
        self.log("stats");
        NetworkStats {
            dropped: 3,
            retransmitted: 4,
            ..NetworkStats::default()
        }
    }
    fn link_counters(&self) -> LinkCounters {
        self.log("link_counters");
        LinkCounters::new()
    }
    fn set_trace(&mut self, _trace: TraceBuffer) {
        self.log("set_trace");
    }
    fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.log("take_trace");
        Some(TraceBuffer::new())
    }
    fn set_phase_profiler(&mut self, profiler: PhaseProfiler) {
        assert!(profiler.is_enabled());
        self.log("set_phase_profiler");
    }
    fn take_phase_breakdown(&mut self) -> Option<PhaseBreakdown> {
        self.log("take_phase_breakdown");
        Some(PhaseBreakdown {
            cycles: 12,
            ..PhaseBreakdown::default()
        })
    }
    fn set_flight_recorder(&mut self, _recorder: FlightRecorder) {
        self.log("set_flight_recorder");
    }
    fn take_flight_recorder(&mut self) -> Option<FlightRecorder> {
        self.log("take_flight_recorder");
        None
    }
    fn buffer_occupancy(&self) -> u64 {
        self.log("buffer_occupancy");
        11
    }
    fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.log("set_fault_plan");
        *self.fault_seed.lock().unwrap() = Some((plan.len(), seed));
    }
    fn drain_failures(&mut self) -> Vec<FailedDelivery> {
        self.log("drain_failures");
        Vec::new()
    }
    fn drain_failures_into(&mut self, _out: &mut Vec<FailedDelivery>) {
        self.log("drain_failures_into");
    }
}

#[test]
fn every_trait_method_reaches_the_wrapped_network() {
    let calls = Arc::new(Mutex::new(Vec::new()));
    let fault_seed = Arc::new(Mutex::new(None));
    let mut net = TimedNetwork::new(Box::new(Probe {
        calls: Arc::clone(&calls),
        fault_seed: Arc::clone(&fault_seed),
        next_id: 0,
    }));

    assert_eq!(net.name(), "probe");
    assert_eq!(net.cycle(), 41);
    assert_eq!(
        net.inject(NewPacket::unicast(NodeId(0), NodeId(5))),
        Some(PacketId(0))
    );
    assert_eq!(
        net.inject(NewPacket::unicast(NodeId(0), NodeId(5))),
        Some(PacketId(1))
    );
    net.step();
    assert_eq!(net.drain_deliveries().len(), 1);
    let mut out = Vec::new();
    net.drain_deliveries_into(&mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(net.in_flight(), 7);
    assert_eq!(net.energy().dynamic_pj, 1.5);
    assert_eq!(net.stats().retransmitted, 4);
    let _ = net.link_counters();
    net.set_trace(TraceBuffer::new());
    assert!(net.take_trace().is_some());
    net.set_phase_profiler(PhaseProfiler::enabled(1));
    assert_eq!(net.take_phase_breakdown().map(|b| b.cycles), Some(12));
    net.set_flight_recorder(FlightRecorder::new(1, 1));
    assert!(net.take_flight_recorder().is_none());
    assert_eq!(net.buffer_occupancy(), 11);
    let mut plan = FaultPlan::new();
    plan.push(Fault::permanent(FaultKind::RouterStuck { node: NodeId(3) }));
    net.set_fault_plan(plan, 99);
    assert_eq!(*fault_seed.lock().unwrap(), Some((1, 99)));
    assert!(net.drain_failures().is_empty());
    net.drain_failures_into(&mut Vec::new());

    let seen = calls.lock().unwrap().clone();
    for call in [
        "name",
        "cycle",
        "inject",
        "step",
        "drain_deliveries",
        "drain_deliveries_into",
        "in_flight",
        "energy",
        "stats",
        "link_counters",
        "set_trace",
        "take_trace",
        "set_phase_profiler",
        "take_phase_breakdown",
        "set_flight_recorder",
        "take_flight_recorder",
        "buffer_occupancy",
        "set_fault_plan",
        "drain_failures",
        "drain_failures_into",
    ] {
        assert!(seen.contains(&call), "{call} was not forwarded: {seen:?}");
    }

    // Both packets were delivered once each, so the ledger owes nothing;
    // the probe's own in-flight answer, 7, disagrees with it.
    let c = net.counters();
    assert_eq!((c.steps, c.injects, c.deliveries), (1, 2, 2));
    let ledger = net.ledger();
    assert_eq!((ledger.accepted, ledger.resolved, ledger.owed), (2, 2, 0));
    assert!(!ledger.closes(), "in_flight 7 cannot match an empty ledger");

    // A second delivery of packet 0 was never owed.
    net.drain_deliveries();
    assert_eq!(net.ledger().unexpected, 1);
}

#[test]
fn ledger_closes_on_a_real_network() {
    let mut net = TimedNetwork::new(build_network("optical4", Mesh::new(4, 4), None).unwrap());
    let id = net
        .inject(NewPacket::unicast(NodeId(0), NodeId(15)))
        .unwrap();
    while net.in_flight() > 0 {
        net.step();
        net.drain_deliveries();
    }
    assert!(net.ledger().closes());
    assert_eq!(net.counters().deliveries, 1);
    assert_eq!(id, PacketId(0));
}

#[test]
fn timed_workload_passes_packets_through() {
    let mut calls = 0;
    let inner = |_cycle: u64| {
        calls += 1;
        vec![NewPacket::unicast(NodeId(1), NodeId(2))]
    };
    let mut w = TimedWorkload::new(inner);
    let mut out = Vec::new();
    w.generate_into(0, &mut out);
    w.generate_into(1, &mut out);
    assert_eq!(out.len(), 2);
    assert_eq!(w.generated, 2);
}

fn without_wall_clock(mut r: JobRecord) -> JobRecord {
    r.wall_seconds = 0.0;
    if let Some(p) = &mut r.phases {
        p.nanos = Default::default();
    }
    r
}

fn golden_spec() -> LabSpec {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../results/specs/golden.lab"
    ))
    .expect("golden.lab is committed");
    LabSpec::parse(&text).unwrap()
}

#[test]
fn wrapped_golden_jobs_match_run_job() {
    let spec = golden_spec();
    for job in expand(&spec) {
        let traced = run_job_traced(&spec, &job, None).unwrap();
        assert!(
            traced.ledger.closes(),
            "job {}: {:?}",
            job.index,
            traced.ledger
        );
        assert_eq!(traced.net.steps, traced.record.cycles, "job {}", job.index);
        let plain = run_job(&spec, &job).unwrap();
        assert_eq!(
            without_wall_clock(traced.record),
            without_wall_clock(plain),
            "job {}",
            job.index
        );
    }
}

#[test]
fn profiled_and_faulted_jobs_match_run_job() {
    let mut spec = golden_spec();
    spec.intensities = vec![0.2];
    spec.replicas = 1;
    spec.profile = 4;
    for job in expand(&spec).into_iter().step_by(3) {
        let traced = run_job_traced(&spec, &job, None).unwrap();
        assert!(
            traced.ledger.closes(),
            "job {}: {:?}",
            job.index,
            traced.ledger
        );
        assert!(traced.record.phases.is_some());
        let plain = run_job(&spec, &job).unwrap();
        assert_eq!(
            without_wall_clock(traced.record),
            without_wall_clock(plain),
            "job {}",
            job.index
        );
    }
}

fn listed_names(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .expect("list present")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is committed");
    let doc = json::parse(&text).unwrap();
    let printed = |ms: Vec<perfbench::measure::Metric>| -> Vec<(String, String)> {
        ms.into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect()
    };
    assert_eq!(
        listed_names(&doc, "end_to_end"),
        printed(EndToEnd::default().metrics())
    );
    assert_eq!(
        listed_names(&doc, "per_layer"),
        printed(Layers::default().metrics("sweep-optical"))
    );
}
