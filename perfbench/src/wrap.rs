//! Forwarding wrappers that time and count what crosses the boundary
//! between the harness and the layers below it.
//!
//! [`TimedNetwork`] wraps a lab-built `Box<dyn Network + Send>` and
//! times `step`, `inject` and the delivery/failure drains.
//! [`TimedWorkload`] wraps a [`SyntheticWorkload`] and times
//! `generate_into`. Every other trait method forwards untouched, so a
//! run through the wrappers simulates exactly what a run without them
//! does.
//!
//! The network wrapper also keeps a per-packet ledger of destinations
//! still owed, so a run can check that its packet accounting closes:
//! destinations accepted by `inject` = deliveries + failed deliveries +
//! destinations still in flight.

use phastlane_netsim::fault::{FailedDelivery, FaultPlan};
use phastlane_netsim::geometry::Mesh;
use phastlane_netsim::harness::SyntheticWorkload;
use phastlane_netsim::network::Network;
use phastlane_netsim::obs::{FlightRecorder, PhaseBreakdown, PhaseProfiler, TraceBuffer};
use phastlane_netsim::packet::{Delivery, DestSet, NewPacket, PacketId};
use phastlane_netsim::stats::{EnergyReport, NetworkStats};
use phastlane_netsim::telemetry::LinkCounters;
use std::time::Instant;

/// Wall time and traffic that crossed one [`TimedNetwork`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetCounters {
    /// `step` calls (simulated cycles).
    pub steps: u64,
    /// Nanoseconds inside `step`.
    pub step_ns: u64,
    /// `inject` calls, accepted or not.
    pub inject_calls: u64,
    /// Packets the network accepted.
    pub injects: u64,
    /// Nanoseconds inside `inject`, estimated from one call in
    /// [`INJECT_SAMPLE`] (see [`TimedNetwork`]).
    pub inject_ns: u64,
    /// Destinations of the accepted packets.
    pub accepted_dests: u64,
    /// Per-destination deliveries drained.
    pub deliveries: u64,
    /// Per-destination terminal failures drained.
    pub failures: u64,
    /// Nanoseconds inside the delivery and failure drains.
    pub drain_ns: u64,
}

/// Whether a run's packet accounting closed (see [`TimedNetwork::ledger`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    /// Destinations accepted by `inject`.
    pub accepted: u64,
    /// Deliveries plus terminal failures.
    pub resolved: u64,
    /// Destinations still owed, by the wrapper's per-packet ledger.
    pub owed: u64,
    /// Packets with a destination still owed, by the ledger.
    pub owed_packets: u64,
    /// The network's own in-flight packet count.
    pub in_flight: u64,
    /// Deliveries or failures for a packet the ledger did not owe.
    pub unexpected: u64,
}

impl Ledger {
    /// accepted = resolved + owed, the ledger agrees with the network
    /// on how many packets are still in flight, and nothing arrived
    /// that was not owed.
    pub fn closes(&self) -> bool {
        self.accepted == self.resolved + self.owed
            && self.owed_packets == self.in_flight
            && self.unexpected == 0
    }
}

/// `inject` calls per timed one. A cycle makes dozens of injects, each
/// far shorter than a `step`; two clock reads around every one of them
/// would make the traced run several tens of percent slower.
pub const INJECT_SAMPLE: u64 = 8;

/// A [`Network`] that forwards to `inner`, timing and counting the
/// per-cycle calls. `step` and the drains are timed on every call;
/// `inject` on every [`INJECT_SAMPLE`]th call, scaled to all calls.
pub struct TimedNetwork {
    inner: Box<dyn Network + Send>,
    counters: NetCounters,
    sampled_injects: u64,
    sampled_inject_ns: u64,
    /// Destinations still owed per packet id. Both networks hand out
    /// sequential ids from 0, so a dense vector indexed by id suffices.
    owed: Vec<u32>,
    unexpected: u64,
}

impl TimedNetwork {
    /// Wraps a network.
    pub fn new(inner: Box<dyn Network + Send>) -> Self {
        TimedNetwork {
            inner,
            counters: NetCounters::default(),
            sampled_injects: 0,
            sampled_inject_ns: 0,
            owed: Vec::new(),
            unexpected: 0,
        }
    }

    /// What crossed the wrapper so far.
    pub fn counters(&self) -> NetCounters {
        let mut c = self.counters;
        if self.sampled_injects > 0 {
            c.inject_ns = (u128::from(self.sampled_inject_ns) * u128::from(c.inject_calls)
                / u128::from(self.sampled_injects)) as u64;
        }
        c
    }

    /// The packet ledger at this point of the run.
    pub fn ledger(&self) -> Ledger {
        Ledger {
            accepted: self.counters.accepted_dests,
            resolved: self.counters.deliveries + self.counters.failures,
            owed: self.owed.iter().map(|&n| u64::from(n)).sum(),
            owed_packets: self.owed.iter().filter(|&&n| n > 0).count() as u64,
            in_flight: self.inner.in_flight() as u64,
            unexpected: self.unexpected,
        }
    }

    fn resolve(&mut self, packet: PacketId) {
        match usize::try_from(packet.0)
            .ok()
            .and_then(|i| self.owed.get_mut(i))
        {
            Some(n) if *n > 0 => *n -= 1,
            _ => self.unexpected += 1,
        }
    }
}

/// Destinations of a packet, without allocating for the common cases.
fn dest_count(packet: &NewPacket, nodes: usize) -> usize {
    match &packet.dests {
        DestSet::Unicast(d) => usize::from(*d != packet.src),
        DestSet::Broadcast => nodes - 1,
        multi => multi.expand(packet.src, nodes).len(),
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Network for TimedNetwork {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn mesh(&self) -> Mesh {
        self.inner.mesh()
    }
    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }
    fn inject(&mut self, packet: NewPacket) -> Option<PacketId> {
        let dests = dest_count(&packet, self.inner.mesh().nodes());
        let id = if self.counters.inject_calls.is_multiple_of(INJECT_SAMPLE) {
            let t = Instant::now();
            let id = self.inner.inject(packet);
            self.sampled_inject_ns += ns_since(t);
            self.sampled_injects += 1;
            id
        } else {
            self.inner.inject(packet)
        };
        self.counters.inject_calls += 1;
        if let Some(id) = id {
            self.counters.injects += 1;
            self.counters.accepted_dests += dests as u64;
            let i = usize::try_from(id.0).expect("packet id fits in usize");
            if i >= self.owed.len() {
                self.owed.resize(i + 1, 0);
            }
            self.owed[i] += u32::try_from(dests).expect("destination count fits in u32");
        }
        id
    }
    fn step(&mut self) {
        let t = Instant::now();
        self.inner.step();
        self.counters.step_ns += ns_since(t);
        self.counters.steps += 1;
    }
    fn drain_deliveries(&mut self) -> Vec<Delivery> {
        let t = Instant::now();
        let out = self.inner.drain_deliveries();
        self.counters.drain_ns += ns_since(t);
        self.counters.deliveries += out.len() as u64;
        for d in &out {
            self.resolve(d.packet);
        }
        out
    }
    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.drain_deliveries_into(out);
        self.counters.drain_ns += ns_since(t);
        self.counters.deliveries += (out.len() - before) as u64;
        for d in &out[before..] {
            self.resolve(d.packet);
        }
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
    fn energy(&self) -> EnergyReport {
        self.inner.energy()
    }
    fn stats(&self) -> NetworkStats {
        self.inner.stats()
    }
    fn link_counters(&self) -> LinkCounters {
        self.inner.link_counters()
    }
    fn set_trace(&mut self, trace: TraceBuffer) {
        self.inner.set_trace(trace)
    }
    fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.inner.take_trace()
    }
    fn set_phase_profiler(&mut self, profiler: PhaseProfiler) {
        self.inner.set_phase_profiler(profiler)
    }
    fn take_phase_breakdown(&mut self) -> Option<PhaseBreakdown> {
        self.inner.take_phase_breakdown()
    }
    fn set_flight_recorder(&mut self, recorder: FlightRecorder) {
        self.inner.set_flight_recorder(recorder)
    }
    fn take_flight_recorder(&mut self) -> Option<FlightRecorder> {
        self.inner.take_flight_recorder()
    }
    fn buffer_occupancy(&self) -> u64 {
        self.inner.buffer_occupancy()
    }
    fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.inner.set_fault_plan(plan, seed)
    }
    fn drain_failures(&mut self) -> Vec<FailedDelivery> {
        let t = Instant::now();
        let out = self.inner.drain_failures();
        self.counters.drain_ns += ns_since(t);
        self.counters.failures += out.len() as u64;
        for f in &out {
            self.resolve(f.packet);
        }
        out
    }
    fn drain_failures_into(&mut self, out: &mut Vec<FailedDelivery>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.drain_failures_into(out);
        self.counters.drain_ns += ns_since(t);
        self.counters.failures += (out.len() - before) as u64;
        for d in &out[before..] {
            self.resolve(d.packet);
        }
    }
}

/// A [`SyntheticWorkload`] that forwards to `inner`, timing
/// `generate_into` and counting the packets it yields.
pub struct TimedWorkload<W> {
    inner: W,
    /// Nanoseconds inside the generator.
    pub generate_ns: u64,
    /// Packets generated.
    pub generated: u64,
}

impl<W> TimedWorkload<W> {
    /// Wraps a workload.
    pub fn new(inner: W) -> Self {
        TimedWorkload {
            inner,
            generate_ns: 0,
            generated: 0,
        }
    }
}

impl<W: SyntheticWorkload> SyntheticWorkload for TimedWorkload<W> {
    fn generate(&mut self, cycle: u64) -> Vec<NewPacket> {
        let mut out = Vec::new();
        self.generate_into(cycle, &mut out);
        out
    }
    fn generate_into(&mut self, cycle: u64, out: &mut Vec<NewPacket>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.generate_into(cycle, out);
        self.generate_ns += ns_since(t);
        self.generated += (out.len() - before) as u64;
    }
}
