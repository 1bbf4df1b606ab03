//! The baseline electrical virtual-channel network simulator (Table 2).
//!
//! An input-queued VC router per node: 10 single-flit VCs per port,
//! credit-based flow control with wait-for-tail credit, separable
//! iSLIP VC and switch allocation, crossbar input speedup 4, and a 2- or
//! 3-cycle router pipeline (route lookahead + speculation collapse the
//! stages; a flit that arrives at cycle *T* departs at *T + delay* and
//! lands in the next router at *T + delay + 1*, one link cycle later).
//! Ejection bypasses the
//! crossbar: a flit reaching its destination router is accepted by the
//! processor one cycle after arrival. Broadcasts use pre-installed VCTM
//! trees ([`crate::vctm`]).

use crate::bits::{low_bits, rotated, Bits};
use crate::config::ElectricalConfig;
use crate::islip::Islip;
use crate::power::EnergyLedger;
use crate::vctm::{mask_of, tree_fork, TargetMask};
use phastlane_netsim::fastmap::FastMap;
use phastlane_netsim::fault::{productive_detour, FailedDelivery, FaultPlan};
use phastlane_netsim::geometry::{Direction, Mesh, NodeId, Port};
use phastlane_netsim::mask::NodeMask;
use phastlane_netsim::network::Network;
use phastlane_netsim::nic::Nic;
use phastlane_netsim::obs::{
    EventKind, FlightRecorder, Obs, Phase, PhaseBreakdown, PhaseProfiler, TraceBuffer,
};
use phastlane_netsim::packet::{Delivery, NewPacket, PacketId, PacketKind};
use phastlane_netsim::routing::xy_first_hop;
use phastlane_netsim::stats::{EnergyReport, NetworkStats};
use phastlane_netsim::telemetry::LinkCounters;

/// Immutable identity of a packet.
#[derive(Debug, Clone, Copy)]
struct Core {
    id: PacketId,
    src: NodeId,
    kind: PacketKind,
    injected_cycle: u64,
}

/// Routing state a flit carries.
#[derive(Debug, Clone, Copy)]
enum Route {
    Unicast(NodeId),
    /// A VCTM multicast: remaining targets of this subtree.
    Tree(TargetMask),
}

/// One pending output branch of a flit (unicast flits have one; tree
/// flits fork).
#[derive(Debug, Clone, Copy)]
struct Branch {
    out: Direction,
    /// Subtree targets carried by this branch (empty for unicast).
    mask: TargetMask,
    /// Downstream VC reserved by the VC allocator.
    out_vc: Option<usize>,
    done: bool,
}

/// A flit occupying a VC.
#[derive(Debug, Clone)]
struct Flit {
    core: Core,
    /// Unicast destination; `None` for a VCTM tree flit, whose targets
    /// ride on its branches.
    dest: Option<NodeId>,
    in_port: Port,
    eligible_at: u64,
    branches: Vec<Branch>,
    /// Local delivery pending at this cycle (ejection bypass).
    eject_at: Option<u64>,
}

impl Flit {
    fn finished(&self) -> bool {
        self.eject_at.is_none() && self.branches.iter().all(|b| b.done)
    }

    /// The branch toward `dir`; a flit forks at most one branch per
    /// direction (unicast flits have one, VCTM trees one per subtree).
    fn branch_mut(&mut self, dir: Direction) -> &mut Branch {
        self.branches
            .iter_mut()
            .find(|b| b.out == dir)
            .expect("flit has a branch toward the requested output")
    }
}

/// Per-router state.
///
/// A router's input VCs live in the network's flat slot arena, slot
/// `port * V + vc` of the router's `5 * V` (`V` = VCs per port). Bit `s`
/// of every slot mask below refers to that slot. The masks change only
/// at the four slot transitions — land (arrival or injection), VC grant,
/// send or eject, and free — so each phase walks exactly the slots it
/// acts on.
#[derive(Debug)]
struct Router {
    /// Occupied slots.
    occupied: u64,
    /// Occupied slots not yet promoted to eligible: their flit's
    /// pipeline delay had not elapsed at the last VC-allocation phase.
    waiting: u64,
    /// `va_req[d]`: slots whose eligible flit has a branch toward output
    /// `d` still waiting for a downstream VC.
    va_req: [u64; 4],
    /// `sa_req[d]`: slots whose flit holds a downstream VC toward output
    /// `d` for a branch not yet sent.
    sa_req: [u64; 4],
    /// Slots whose flit has a local delivery pending.
    eject: u64,
    /// Slots whose flit is finished: no delivery pending, every branch
    /// sent.
    finished: u64,
    /// `credits[d]`: bit `vc` is set while downstream VC `vc` across
    /// output `d` is free.
    credits: [u64; 4],
    /// VC-allocator rotation per output direction (a slot index).
    va_ptr: [usize; 4],
    /// Switch allocator state (5 inputs x 4 outputs).
    sa: Islip,
    /// Round-robin VC selector per (input port, output dir).
    vc_sel: [[usize; 4]; 5],
}

impl Router {
    fn new(cfg: &ElectricalConfig) -> Self {
        Router {
            occupied: 0,
            waiting: 0,
            va_req: [0; 4],
            sa_req: [0; 4],
            eject: 0,
            finished: 0,
            credits: [low_bits(cfg.vcs_per_port); 4],
            va_ptr: [0; 4],
            sa: Islip::new(5, 4),
            vc_sel: [[0; 4]; 5],
        }
    }

    /// Marks slot `s` as holding `flit`, which just landed.
    fn land(&mut self, s: usize, flit: &Flit) {
        let bit = 1 << s;
        self.occupied |= bit;
        self.waiting |= bit;
        if flit.eject_at.is_some() {
            self.eject |= bit;
        }
        if flit.finished() {
            self.finished |= bit;
        }
    }

    /// Clears slot `s` from every mask.
    fn vacate(&mut self, s: usize) {
        let keep = !(1 << s);
        self.occupied &= keep;
        self.waiting &= keep;
        for d in 0..4 {
            self.va_req[d] &= keep;
            self.sa_req[d] &= keep;
        }
        self.eject &= keep;
        self.finished &= keep;
    }
}

/// A flit in flight on a link.
#[derive(Debug)]
struct Arrival {
    router: usize,
    port: usize,
    vc: usize,
    flit: Flit,
}

/// A credit travelling back upstream.
#[derive(Debug, Clone, Copy)]
struct CreditReturn {
    router: usize,
    dir: usize,
    vc: usize,
}

/// The baseline electrical network.
#[derive(Debug)]
pub struct ElectricalNetwork {
    cfg: ElectricalConfig,
    cycle: u64,
    routers: Vec<Router>,
    /// Input-VC slot arena: router `r`'s slot `s` is entry
    /// `r * 5 * V + s` (see [`Router`]).
    slots: Vec<Option<Flit>>,
    /// Switch-allocator match buffer, reused every cycle.
    sa_matches: Vec<(usize, usize)>,
    nics: Vec<Nic<(Core, Route)>>,
    incoming: Vec<Arrival>,
    credit_returns: Vec<CreditReturn>,
    /// Remaining undelivered targets per packet id (keyed by the raw
    /// sequential id, so open-addressing probes stay short).
    outstanding: FastMap<usize>,
    deliveries: Vec<Delivery>,
    next_id: u64,
    /// Sources whose VCTM tree is already installed (dense, per node).
    warm_trees: Vec<bool>,
    energy: EnergyLedger,
    stats: NetworkStats,
    links: LinkCounters,
    /// Observability handle: one branch per emit site when disabled.
    obs: Obs,
    /// Hot-loop phase profiler: one branch per mark site when disabled.
    profiler: PhaseProfiler,
    /// Scheduled device failures; the empty plan is zero-effect (every
    /// fault hook is gated on it).
    fault_plan: FaultPlan,
    /// Destinations terminally given up on, awaiting `drain_failures`.
    failures: Vec<FailedDelivery>,
}

/// How long a flit may sit unserviced before a fault plan declares its
/// remaining targets undeliverable (the electrical livelock guard; only
/// consulted while a fault plan is installed). Far beyond any contention
/// stall the 1-flit-per-VC router can produce on an 8x8 mesh.
const STALL_ABANDON_CYCLES: u64 = 2_000;

impl ElectricalNetwork {
    /// Builds a network from a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `entries_per_vc` is 1, or if `5 * vcs_per_port`
    /// exceeds 64 (a router's input VCs are tracked in 64-bit masks).
    pub fn new(cfg: ElectricalConfig) -> Self {
        assert_eq!(
            cfg.entries_per_vc, 1,
            "this model implements the paper's 1-entry-per-VC configuration"
        );
        assert!(
            5 * cfg.vcs_per_port <= 64,
            "vcs_per_port = {} is too many: a router tracks its 5 x vcs_per_port \
             input VCs in 64-bit masks, so at most 12 VCs per port are supported",
            cfg.vcs_per_port
        );
        let mesh = cfg.mesh;
        let nodes = cfg.mesh.nodes();
        let routers = (0..nodes).map(|_| Router::new(&cfg)).collect();
        let slots = (0..nodes * 5 * cfg.vcs_per_port).map(|_| None).collect();
        let nics = (0..nodes).map(|_| Nic::new(cfg.nic_entries)).collect();
        let energy = EnergyLedger::new(nodes);
        ElectricalNetwork {
            cfg,
            cycle: 0,
            routers,
            slots,
            sa_matches: Vec::new(),
            nics,
            incoming: Vec::new(),
            credit_returns: Vec::new(),
            outstanding: FastMap::new(),
            deliveries: Vec::new(),
            next_id: 0,
            warm_trees: vec![false; nodes],
            energy,
            stats: NetworkStats::default(),
            links: LinkCounters::for_mesh(mesh),
            obs: Obs::off(),
            profiler: PhaseProfiler::off(),
            fault_plan: FaultPlan::new(),
            failures: Vec::new(),
        }
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &ElectricalConfig {
        &self.cfg
    }

    fn make_flit(&mut self, at: NodeId, core: Core, route: Route, in_port: Port, now: u64) -> Flit {
        let mesh = self.cfg.mesh;
        let (branches, eject) = match route {
            Route::Unicast(dest) => {
                if dest == at {
                    (Vec::new(), true)
                } else {
                    let mut out = xy_first_hop(mesh, at, dest).expect("dest != at");
                    if !self.fault_plan.is_empty() && self.fault_plan.blocked(now, mesh, at, out) {
                        // Dead preferred link: detour through the other
                        // dimension when that still makes progress toward
                        // the destination. (When it does not, the branch
                        // keeps its dead output; the VC allocator will
                        // never grant it and the stall-abandon guard
                        // eventually declares the target undeliverable.)
                        if let Some((dir, _)) =
                            productive_detour(&self.fault_plan, now, mesh, at, dest)
                        {
                            out = dir;
                            self.stats.rerouted += 1;
                            self.obs.emit(
                                now,
                                EventKind::FaultReroute,
                                at,
                                Some(dir),
                                Some(core.id),
                            );
                        }
                    }
                    (
                        vec![Branch {
                            out,
                            mask: NodeMask::EMPTY,
                            out_vc: None,
                            done: false,
                        }],
                        false,
                    )
                }
            }
            Route::Tree(mask) => {
                let (forks, deliver) = tree_fork(mesh, core.src, at, mask);
                let branches = forks
                    .iter()
                    .map(|f| Branch {
                        out: f.out,
                        mask: f.submask,
                        out_vc: None,
                        done: false,
                    })
                    .collect();
                (branches, deliver)
            }
        };
        Flit {
            core,
            dest: match route {
                Route::Unicast(dest) => Some(dest),
                Route::Tree(_) => None,
            },
            in_port,
            eligible_at: now + self.cfg.router_delay,
            branches,
            eject_at: eject.then_some(now + 1),
        }
    }

    /// Records one terminally-failed destination of an abandoned flit
    /// (stall-abandon guard): the delivery is never going to happen, so
    /// the packet's outstanding count shrinks exactly as a delivery
    /// would, keeping closed-loop harnesses live.
    #[allow(clippy::too_many_arguments)]
    fn record_failure(
        outstanding: &mut FastMap<usize>,
        failures: &mut Vec<FailedDelivery>,
        stats: &mut NetworkStats,
        obs: &mut Obs,
        core: Core,
        dest: NodeId,
        at: NodeId,
        now: u64,
    ) {
        stats.undeliverable += 1;
        failures.push(FailedDelivery {
            packet: core.id,
            src: core.src,
            dest,
            cycle: now,
        });
        obs.emit(now, EventKind::Undeliverable, at, None, Some(core.id));
        let rem = outstanding
            .get_mut(core.id.0)
            .expect("failure for unknown packet");
        *rem -= 1;
        if *rem == 0 {
            outstanding.remove(core.id.0);
        }
    }

    fn deliver(
        outstanding: &mut FastMap<usize>,
        deliveries: &mut Vec<Delivery>,
        stats: &mut NetworkStats,
        obs: &mut Obs,
        core: Core,
        dest: NodeId,
        now: u64,
    ) {
        obs.emit(now, EventKind::Eject, dest, None, Some(core.id));
        deliveries.push(Delivery {
            packet: core.id,
            src: core.src,
            dest,
            injected_cycle: core.injected_cycle,
            delivered_cycle: now,
        });
        stats.delivered += 1;
        let lat = now - core.injected_cycle;
        stats.latency.record(lat);
        stats.latency_by_kind.record(core.kind, lat);
        let rem = outstanding
            .get_mut(core.id.0)
            .expect("unknown packet delivered");
        *rem -= 1;
        if *rem == 0 {
            outstanding.remove(core.id.0);
        }
    }

    /// Total occupied VCs (diagnostics).
    pub fn occupied_vcs(&self) -> usize {
        self.routers
            .iter()
            .map(|r| r.occupied.count_ones() as usize)
            .sum()
    }
}

impl Network for ElectricalNetwork {
    fn name(&self) -> String {
        self.cfg.label()
    }

    fn mesh(&self) -> Mesh {
        self.cfg.mesh
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn inject(&mut self, packet: NewPacket) -> Option<PacketId> {
        let nodes = self.cfg.mesh.nodes();
        let dests = packet.dests.expand(packet.src, nodes);
        let id = PacketId(self.next_id);
        if dests.is_empty() {
            self.next_id += 1;
            self.stats.injected += 1;
            self.stats.delivered += 1;
            self.obs
                .emit(self.cycle, EventKind::Inject, packet.src, None, Some(id));
            self.obs
                .emit(self.cycle, EventKind::Eject, packet.src, None, Some(id));
            self.deliveries.push(Delivery {
                packet: id,
                src: packet.src,
                dest: packet.src,
                injected_cycle: self.cycle,
                delivered_cycle: self.cycle,
            });
            return Some(id);
        }
        let route = if dests.len() == 1 {
            Route::Unicast(dests[0])
        } else {
            Route::Tree(mask_of(&dests))
        };
        let core = Core {
            id,
            src: packet.src,
            kind: packet.kind,
            injected_cycle: self.cycle,
        };
        if self.nics[packet.src.index()]
            .try_push((core, route))
            .is_err()
        {
            self.obs
                .emit(self.cycle, EventKind::NicRetry, packet.src, None, None);
            return None;
        }
        self.outstanding.insert(id.0, dests.len());
        self.stats.injected += 1;
        self.next_id += 1;
        self.obs
            .emit(self.cycle, EventKind::Inject, packet.src, None, Some(id));
        Some(id)
    }

    fn step(&mut self) {
        let now = self.cycle;
        let mesh = self.cfg.mesh;
        let vcs_per_port = self.cfg.vcs_per_port;
        let per_router = 5 * vcs_per_port;
        let port_vcs = low_bits(vcs_per_port);
        self.profiler.begin_cycle();
        let delivered_before = self.deliveries.len();

        // Fault bookkeeping: edge events for faults starting or clearing
        // this cycle. Skipped entirely (zero-effect) with no plan.
        let fault_active = !self.fault_plan.is_empty();
        if fault_active {
            for (fault, injected) in self.fault_plan.edges_at(now) {
                let kind = if injected {
                    EventKind::FaultInjected
                } else {
                    EventKind::FaultCleared
                };
                self.obs.emit(now, kind, fault.site(), fault.port(), None);
            }
        }
        self.profiler.mark(Phase::Fault);

        // Phase 1: credits return.
        self.profiler
            .add_work(Phase::Drain, self.credit_returns.len() as u64);
        for cr in self.credit_returns.drain(..) {
            let credits = &mut self.routers[cr.router].credits[cr.dir];
            debug_assert!(*credits >> cr.vc & 1 == 0, "credit returned twice");
            *credits |= 1 << cr.vc;
        }

        // Phase 2: link arrivals land in their reserved VCs.
        for a in self.incoming.drain(..) {
            let s = a.port * vcs_per_port + a.vc;
            let slot = &mut self.slots[a.router * per_router + s];
            debug_assert!(slot.is_none(), "reserved VC occupied");
            self.energy.on_buffer_write();
            self.routers[a.router].land(s, &a.flit);
            *slot = Some(a.flit);
        }
        self.profiler.mark(Phase::Drain);

        // Phase 3: ejection bypass — deliver flits one cycle after
        // arrival, without the crossbar.
        for r_idx in 0..self.routers.len() {
            let pending = self.routers[r_idx].eject;
            if pending == 0 {
                continue;
            }
            let here = NodeId(r_idx as u16);
            if fault_active && self.fault_plan.router_stuck(now, here) {
                continue; // a stuck router cannot even eject
            }
            for s in Bits(pending) {
                let flit = self.slots[r_idx * per_router + s]
                    .as_mut()
                    .expect("eject bit marks an occupied slot");
                if flit.eject_at.expect("eject bit marks a pending delivery") > now {
                    continue;
                }
                flit.eject_at = None;
                let core = flit.core;
                let r = &mut self.routers[r_idx];
                r.eject &= !(1 << s);
                if flit.finished() {
                    r.finished |= 1 << s;
                }
                self.energy.on_buffer_read();
                Self::deliver(
                    &mut self.outstanding,
                    &mut self.deliveries,
                    &mut self.stats,
                    &mut self.obs,
                    core,
                    here,
                    now,
                );
            }
        }

        self.profiler.add_work(
            Phase::Eject,
            (self.deliveries.len() - delivered_before) as u64,
        );
        self.profiler.mark(Phase::Eject);

        // Phase 4: injection — one flit per node per cycle into a free
        // local-port VC.
        let mut route_work = 0u64;
        let local_base = Port::Local.index() * vcs_per_port;
        for r_idx in 0..self.routers.len() {
            let here = NodeId(r_idx as u16);
            if self.nics[r_idx].is_empty() {
                continue;
            }
            if fault_active && self.fault_plan.router_stuck(now, here) {
                // A stuck router accepts no new traffic — and a permanent
                // fault would strand its own NIC queue forever. Age out
                // entries waiting far past any transient window, failing
                // their targets terminally so accounting stays closed.
                while let Some((core, _)) = self.nics[r_idx].front() {
                    if now.saturating_sub(core.injected_cycle) <= STALL_ABANDON_CYCLES {
                        break;
                    }
                    let (core, route) = self.nics[r_idx].pop().expect("checked non-empty");
                    self.stats.retry_exhausted += 1;
                    match route {
                        Route::Unicast(dest) => Self::record_failure(
                            &mut self.outstanding,
                            &mut self.failures,
                            &mut self.stats,
                            &mut self.obs,
                            core,
                            dest,
                            here,
                            now,
                        ),
                        Route::Tree(mask) => {
                            for t in mask.iter() {
                                Self::record_failure(
                                    &mut self.outstanding,
                                    &mut self.failures,
                                    &mut self.stats,
                                    &mut self.obs,
                                    core,
                                    t,
                                    here,
                                    now,
                                );
                            }
                        }
                    }
                }
                continue;
            }
            let free = !(self.routers[r_idx].occupied >> local_base) & port_vcs;
            if free == 0 {
                continue;
            }
            let s = local_base + free.trailing_zeros() as usize;
            let (core, route) = self.nics[r_idx].pop().expect("checked non-empty");
            let mut flit = self.make_flit(here, core, route, Port::Local, now);
            if let Route::Tree(_) = route {
                if self.cfg.vctm_setup_penalty > 0
                    && !std::mem::replace(&mut self.warm_trees[core.src.index()], true)
                {
                    flit.eligible_at += self.cfg.vctm_setup_penalty;
                }
            }
            self.energy.on_buffer_write();
            self.routers[r_idx].land(s, &flit);
            self.slots[r_idx * per_router + s] = Some(flit);
            route_work += 1;
        }
        self.profiler.add_work(Phase::Route, route_work);
        self.profiler.mark(Phase::Route);

        // Phase 5: VC allocation — grant free downstream VCs to eligible
        // branches, round-robin per output direction.
        let mut arb_work = 0u64;
        for r_idx in 0..self.routers.len() {
            let r = &mut self.routers[r_idx];
            if r.occupied == 0 {
                continue;
            }
            let here = NodeId(r_idx as u16);
            let base = r_idx * per_router;
            // Promote flits whose pipeline delay has elapsed: every
            // branch of a newly eligible flit requests a VC.
            for s in Bits(r.waiting) {
                let flit = self.slots[base + s]
                    .as_ref()
                    .expect("waiting slot is occupied");
                if flit.eligible_at <= now {
                    r.waiting &= !(1 << s);
                    for b in &flit.branches {
                        r.va_req[Port::Dir(b.out).index()] |= 1 << s;
                    }
                }
            }
            for dir in Direction::ALL {
                let d = Port::Dir(dir).index();
                let requesters = r.va_req[d];
                if requesters == 0 || mesh.neighbor(here, dir).is_none() {
                    continue;
                }
                if fault_active && self.fault_plan.blocked(now, mesh, here, dir) {
                    continue; // never grant VCs across a faulted link
                }
                // Requesters in slot order rotated to start at the VA
                // pointer; free VCs in ascending order.
                let mut free_vcs = Bits(r.credits[d]);
                for s in rotated(requesters, r.va_ptr[d]) {
                    let Some(out_vc) = free_vcs.next() else { break };
                    r.credits[d] &= !(1 << out_vc);
                    r.va_req[d] &= !(1 << s);
                    r.sa_req[d] |= 1 << s;
                    let b = self.slots[base + s]
                        .as_mut()
                        .expect("requester exists")
                        .branch_mut(dir);
                    b.out_vc = Some(out_vc);
                    self.energy.on_allocation();
                    arb_work += 1;
                    r.va_ptr[d] = s + 1;
                }
            }
        }
        self.profiler.add_work(Phase::Arbitrate, arb_work);
        self.profiler.mark(Phase::Arbitrate);

        // Phase 6: switch allocation (iSLIP) and traversal.
        let mut matches = std::mem::take(&mut self.sa_matches);
        for r_idx in 0..self.routers.len() {
            let r = &mut self.routers[r_idx];
            if r.sa_req == [0; 4] {
                continue;
            }
            let here = NodeId(r_idx as u16);
            if fault_active && self.fault_plan.router_stuck(now, here) {
                continue; // nothing moves through a stuck router
            }
            let base = r_idx * per_router;
            // Candidate VC per (input port, output dir), chosen
            // round-robin over the port's VCs.
            let mut candidate = [[0usize; 4]; 5];
            let mut requests = [0u32; 5];
            for dir in Direction::ALL {
                let d = Port::Dir(dir).index();
                if r.sa_req[d] == 0 {
                    continue;
                }
                if fault_active && self.fault_plan.blocked(now, mesh, here, dir) {
                    continue; // granted VCs across a now-dead link wait
                }
                for port in 0..5 {
                    let ready = r.sa_req[d] >> (port * vcs_per_port) & port_vcs;
                    if let Some(vc) = rotated(ready, r.vc_sel[port][d]).next() {
                        candidate[port][d] = vc;
                        requests[port] |= 1 << d;
                    }
                }
            }
            r.sa.allocate(
                &requests,
                self.cfg.input_speedup,
                self.cfg.islip_iterations,
                &mut matches,
            );
            for &(port, d) in &matches {
                let vc = candidate[port][d];
                let s = port * vcs_per_port + vc;
                let dir = match Port::ALL[d] {
                    Port::Dir(dir) => dir,
                    Port::Local => unreachable!("outputs are directions"),
                };
                let next = mesh.neighbor(here, dir).expect("VA only grants real links");
                let f = self.slots[base + s]
                    .as_mut()
                    .expect("candidate flit exists");
                let dest = f.dest;
                let b = f.branch_mut(dir);
                let out_vc = b.out_vc.expect("SA requires an allocated VC");
                b.done = true;
                let route = match dest {
                    Some(dest) => Route::Unicast(dest),
                    None => Route::Tree(b.mask),
                };
                let core = f.core;
                let r = &mut self.routers[r_idx];
                r.sa_req[d] &= !(1 << s);
                if f.finished() {
                    r.finished |= 1 << s;
                }
                r.vc_sel[port][d] = (vc + 1) % vcs_per_port;
                self.energy.on_allocation();
                self.energy.on_buffer_read();
                self.energy.on_crossbar();
                self.energy.on_link();
                self.links.record(here, dir);
                self.obs.emit(
                    now,
                    EventKind::LinkTraversal,
                    here,
                    Some(dir),
                    Some(core.id),
                );
                let in_port = Port::Dir(dir.opposite());
                let flit = self.make_flit(next, core, route, in_port, now + 1);
                self.incoming.push(Arrival {
                    router: next.index(),
                    port: in_port.index(),
                    vc: out_vc,
                    flit,
                });
            }
        }
        self.sa_matches = matches;

        // Link traversals this cycle = arrivals queued for the next one.
        self.profiler
            .add_work(Phase::Traverse, self.incoming.len() as u64);
        self.profiler.mark(Phase::Traverse);

        // Phase 7: free finished VCs and send credits upstream. With a
        // fault plan every occupied VC is also checked for stall-abandon.
        for r_idx in 0..self.routers.len() {
            let r = &self.routers[r_idx];
            let candidates = if fault_active { r.occupied } else { r.finished };
            if candidates == 0 {
                continue;
            }
            let here = NodeId(r_idx as u16);
            let base = r_idx * per_router;
            for s in Bits(candidates) {
                let finished = self.routers[r_idx].finished >> s & 1 == 1;
                let abandon = fault_active && {
                    let f = self.slots[base + s].as_ref().expect("occupied slot");
                    now.saturating_sub(f.eligible_at) > STALL_ABANDON_CYCLES
                };
                if !finished && !abandon {
                    continue;
                }
                let flit = self.slots[base + s].take().expect("checked");
                self.routers[r_idx].vacate(s);
                if abandon && !finished {
                    // Stall-abandon: a fault plan is active and this
                    // flit has been unserviceable for far longer than
                    // congestion alone could explain. Its remaining
                    // targets are terminally undeliverable; reserved
                    // downstream VCs are released so the fabric around
                    // the fault keeps flowing.
                    self.stats.retry_exhausted += 1;
                    for b in &flit.branches {
                        if !b.done {
                            if let Some(ovc) = b.out_vc {
                                let d = Port::Dir(b.out).index();
                                self.routers[r_idx].credits[d] |= 1 << ovc;
                            }
                        }
                    }
                    if flit.eject_at.is_some() {
                        Self::record_failure(
                            &mut self.outstanding,
                            &mut self.failures,
                            &mut self.stats,
                            &mut self.obs,
                            flit.core,
                            here,
                            here,
                            now,
                        );
                    }
                    for b in &flit.branches {
                        if b.done {
                            continue;
                        }
                        match flit.dest {
                            Some(dest) => Self::record_failure(
                                &mut self.outstanding,
                                &mut self.failures,
                                &mut self.stats,
                                &mut self.obs,
                                flit.core,
                                dest,
                                here,
                                now,
                            ),
                            None => {
                                for t in b.mask.iter() {
                                    Self::record_failure(
                                        &mut self.outstanding,
                                        &mut self.failures,
                                        &mut self.stats,
                                        &mut self.obs,
                                        flit.core,
                                        t,
                                        here,
                                        now,
                                    );
                                }
                            }
                        }
                    }
                }
                if let Port::Dir(in_dir) = flit.in_port {
                    let upstream = mesh
                        .neighbor(here, in_dir)
                        .expect("flit arrived over a real link");
                    let up_out = Port::Dir(in_dir.opposite()).index();
                    self.credit_returns.push(CreditReturn {
                        router: upstream.index(),
                        dir: up_out,
                        vc: s % vcs_per_port,
                    });
                }
            }
        }

        // Phase 8: leakage, clock. Phases 7–8 are resource recycling, so
        // their time accrues to the drain phase alongside phases 1–2.
        self.energy.on_cycle();
        self.cycle += 1;
        self.profiler.mark(Phase::Drain);
    }

    fn drain_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries)
    }

    fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.deliveries);
    }

    fn set_fault_plan(&mut self, plan: FaultPlan, _seed: u64) {
        // The electrical model uses no fault-path randomness: link and
        // router faults mask deterministically, and the optical-only
        // droop/bit-error faults do not apply here.
        self.fault_plan = plan;
    }

    fn drain_failures(&mut self) -> Vec<FailedDelivery> {
        std::mem::take(&mut self.failures)
    }

    fn drain_failures_into(&mut self, out: &mut Vec<FailedDelivery>) {
        out.append(&mut self.failures);
    }

    fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    fn energy(&self) -> EnergyReport {
        self.energy.report()
    }

    fn stats(&self) -> NetworkStats {
        self.stats.clone()
    }

    fn link_counters(&self) -> LinkCounters {
        self.links.clone()
    }

    fn set_trace(&mut self, trace: TraceBuffer) {
        self.obs.attach_trace(trace);
    }

    fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.obs.take()
    }

    fn set_phase_profiler(&mut self, profiler: PhaseProfiler) {
        self.profiler = profiler;
    }

    fn take_phase_breakdown(&mut self) -> Option<PhaseBreakdown> {
        self.profiler.take_breakdown()
    }

    fn set_flight_recorder(&mut self, recorder: FlightRecorder) {
        self.obs.attach_flight(recorder);
    }

    fn take_flight_recorder(&mut self) -> Option<FlightRecorder> {
        self.obs.take_flight()
    }

    fn buffer_occupancy(&self) -> u64 {
        self.occupied_vcs() as u64
    }
}
