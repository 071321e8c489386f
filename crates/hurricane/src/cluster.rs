//! The cluster simulator.
//!
//! [`ClusterSim`] executes a synthetic workload on a simulated cluster of SMP
//! nodes. Compute processors run their scripts, stalling on block access
//! faults; every protocol event (fault or message) is pushed into the node's
//! [`DispatchQueue`] keyed by the block it concerns, exactly as the paper's
//! modified Stache protocol does; protocol processors — an S-COMA FSM,
//! embedded Hurricane processors, dedicated Hurricane-1 SMP processors, or
//! idle compute processors under Hurricane-1 Mult — pull events from the
//! queue subject to the PDQ's in-queue synchronization, execute the functional
//! Stache handler, and are occupied for the time given by the Table-1
//! occupancy model.

use pdq_core::{DispatchQueue, QueueConfig, QueueStats, Ticket};
use pdq_dsm::{
    AccessCheck, DsmConfig, DsmProtocol, GlobalAddr, HandlerOutcome, OccupancyModel, ProtocolEvent,
};
use pdq_sim::{Accumulator, BusTransaction, Cycles, EventQueue, MemoryBus, Network};
use pdq_workloads::{Action, AppKind, Workload, WorkloadScale};

use crate::config::{ClusterConfig, ProtocolScheduling};
use crate::metrics::SimReport;

/// Cost (in cycles) of crossing a barrier once every processor has arrived.
const BARRIER_RELEASE_COST: u64 = 50;
/// Cost charged per shared-memory access that hits locally.
const LOCAL_ACCESS_COST: u64 = 1;

/// Runs one simulation of `app` under `config` and returns its report.
///
/// This is the main entry point used by the experiment harness; construct a
/// [`ClusterSim`] directly to reuse a pre-generated [`Workload`].
///
/// `simulate` is a pure function of its three arguments: the workload is
/// derived deterministically from `(app, config.topology, scale,
/// config.seed)` right here on the calling thread, and every stochastic
/// choice downstream draws from that explicitly seeded stream — there is no
/// global or thread-local state. Calls with equal arguments therefore return
/// equal reports from any thread, which is what lets the sweep engine in
/// `pdq-bench` fan simulation cells out across a sharded `PdqExecutor` and
/// still reproduce a sequential sweep exactly.
pub fn simulate(config: ClusterConfig, app: AppKind, scale: WorkloadScale) -> SimReport {
    let workload = Workload::generate(app, config.topology, scale, config.seed);
    ClusterSim::new(config, workload).run()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpuStatus {
    Running,
    Stalled { since: Cycles },
    AtBarrier,
    Done,
}

#[derive(Debug, Clone)]
struct CpuSim {
    pc: usize,
    status: CpuStatus,
    /// Earliest time the processor may resume computing (pushed out while it
    /// executes protocol handlers or absorbs an interrupt under Mult).
    not_before: Cycles,
    /// Currently executing a protocol handler (Mult only).
    busy_handler: bool,
    /// Was interrupted to run protocol handlers and has not yet resumed.
    interrupted: bool,
}

impl CpuSim {
    fn new() -> Self {
        Self {
            pc: 0,
            status: CpuStatus::Running,
            not_before: Cycles::ZERO,
            busy_handler: false,
            interrupted: false,
        }
    }

    fn is_idle_for_protocol(&self) -> bool {
        if self.busy_handler {
            return false;
        }
        self.interrupted
            || matches!(
                self.status,
                CpuStatus::Stalled { .. } | CpuStatus::AtBarrier | CpuStatus::Done
            )
    }
}

/// Which execution slot a handler runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// A dedicated protocol engine (FSM, embedded, or dedicated SMP processor).
    Dedicated(usize),
    /// A compute processor borrowed under multiplexed scheduling.
    ComputeCpu(usize),
}

/// An entry in a node's dispatch queue.
#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    event: ProtocolEvent,
    enqueued_at: Cycles,
}

#[derive(Debug, Clone)]
enum SimEvent {
    /// A compute processor is ready to continue its script.
    CpuNext { node: usize, cpu: usize },
    /// A protocol event is pushed into a node's PDQ.
    ProtocolEnqueue { node: usize, event: ProtocolEvent },
    /// A protocol handler finished executing.
    HandlerDone {
        node: usize,
        slot: Slot,
        ticket: Ticket,
        outcome: HandlerOutcome,
    },
    /// The Hurricane-1 Mult interrupt fires on a node.
    MultInterrupt { node: usize },
}

/// The discrete-event cluster simulator.
#[derive(Debug)]
pub struct ClusterSim {
    cfg: ClusterConfig,
    workload: Workload,
    dsm: DsmProtocol,
    occ: OccupancyModel,
    net: Network,
    buses: Vec<MemoryBus>,
    pdqs: Vec<DispatchQueue<QueuedEvent>>,
    pp_free: Vec<Vec<bool>>,
    interrupt_pending: Vec<bool>,
    mult_rr: Vec<usize>,
    cpus: Vec<Vec<CpuSim>>,
    calendar: EventQueue<SimEvent>,
    barrier_waiting: usize,
    done_cpus: usize,
    finish: Cycles,
    // statistics
    handlers: u64,
    protocol_busy: Cycles,
    interrupts: u64,
    network_messages: u64,
    miss_latency: Accumulator,
    dispatch_wait: Accumulator,
}

impl ClusterSim {
    /// Creates a simulator for `config` executing `workload`.
    ///
    /// # Panics
    ///
    /// Panics if the workload was generated for a different topology than the
    /// configuration specifies.
    pub fn new(config: ClusterConfig, workload: Workload) -> Self {
        assert_eq!(
            workload.topology(),
            config.topology,
            "workload topology must match the cluster configuration"
        );
        let nodes = config.topology.nodes;
        let cpus_per_node = config.topology.cpus_per_node;
        let dedicated = match config.machine.scheduling {
            ProtocolScheduling::Multiplexed => 0,
            _ => config.machine.protocol_processors.max(1),
        };
        Self {
            cfg: config,
            workload,
            dsm: DsmProtocol::new(DsmConfig::new(nodes, config.block_size)),
            occ: OccupancyModel::new(config.machine.engine, config.block_size),
            net: Network::new(config.params.network, nodes),
            buses: (0..nodes).map(|_| MemoryBus::new()).collect(),
            pdqs: (0..nodes)
                .map(|_| {
                    DispatchQueue::with_config(
                        QueueConfig::new().search_window(config.search_window),
                    )
                })
                .collect(),
            pp_free: (0..nodes).map(|_| vec![true; dedicated]).collect(),
            interrupt_pending: vec![false; nodes],
            mult_rr: vec![0; nodes],
            cpus: (0..nodes)
                .map(|_| vec![CpuSim::new(); cpus_per_node])
                .collect(),
            calendar: EventQueue::new(),
            barrier_waiting: 0,
            done_cpus: 0,
            finish: Cycles::ZERO,
            handlers: 0,
            protocol_busy: Cycles::ZERO,
            interrupts: 0,
            network_messages: 0,
            miss_latency: Accumulator::new(),
            dispatch_wait: Accumulator::new(),
        }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> SimReport {
        let total_cpus = self.cfg.topology.total_cpus();
        for node in 0..self.cfg.topology.nodes {
            for cpu in 0..self.cfg.topology.cpus_per_node {
                self.calendar
                    .push(Cycles::ZERO, SimEvent::CpuNext { node, cpu });
            }
        }

        let mut guard: u64 = 0;
        let guard_limit = 200_000_000;
        while let Some((now, event)) = self.calendar.pop() {
            guard += 1;
            assert!(
                guard < guard_limit,
                "simulation exceeded {guard_limit} events; likely livelock"
            );
            match event {
                SimEvent::CpuNext { node, cpu } => self.on_cpu_next(node, cpu, now),
                SimEvent::ProtocolEnqueue { node, event } => {
                    let key = event.sync_key();
                    self.pdqs[node]
                        .enqueue(
                            key,
                            QueuedEvent {
                                event,
                                enqueued_at: now,
                            },
                        )
                        .expect("cluster PDQs are unbounded");
                    self.try_dispatch_node(node, now);
                }
                SimEvent::HandlerDone {
                    node,
                    slot,
                    ticket,
                    outcome,
                } => {
                    self.on_handler_done(node, slot, ticket, outcome, now);
                }
                SimEvent::MultInterrupt { node } => self.on_interrupt(node, now),
            }
        }

        debug_assert_eq!(self.done_cpus, total_cpus, "all processors must finish");
        self.report()
    }

    fn report(&self) -> SimReport {
        let mut queue_stats = QueueStats::new();
        for q in &self.pdqs {
            queue_stats.merge(&q.stats());
        }
        SimReport {
            config: self.cfg,
            execution_cycles: self.finish,
            uniprocessor_cycles: Cycles::new(self.workload.uniprocessor_cycles()),
            faults: self.dsm.stats().faults,
            network_messages: self.network_messages,
            handlers: self.handlers,
            protocol_busy: self.protocol_busy,
            mean_dispatch_wait: self.dispatch_wait.mean(),
            interrupts: self.interrupts,
            queue_stats,
            mean_miss_latency: self.miss_latency.mean(),
            misses: self.miss_latency.count(),
        }
    }

    fn token_of(node: usize, cpu: usize) -> u64 {
        (node as u64) << 20 | cpu as u64
    }

    fn cpu_of_token(token: u64) -> (usize, usize) {
        ((token >> 20) as usize, (token & 0xfffff) as usize)
    }

    fn on_cpu_next(&mut self, node: usize, cpu: usize, now: Cycles) {
        let not_before = self.cpus[node][cpu].not_before;
        if now < not_before {
            self.calendar
                .push(not_before, SimEvent::CpuNext { node, cpu });
            return;
        }
        self.run_cpu(node, cpu, now);
    }

    fn run_cpu(&mut self, node: usize, cpu: usize, mut now: Cycles) {
        let global_cpu = node * self.cfg.topology.cpus_per_node + cpu;
        loop {
            let action = self
                .workload
                .script(global_cpu)
                .get(self.cpus[node][cpu].pc)
                .copied();
            match action {
                None => {
                    self.cpus[node][cpu].status = CpuStatus::Done;
                    self.done_cpus += 1;
                    self.finish = self.finish.max(now);
                    if self.cfg.machine.scheduling == ProtocolScheduling::Multiplexed {
                        self.try_dispatch_node(node, now);
                    }
                    return;
                }
                Some(Action::Compute(c)) => {
                    self.cpus[node][cpu].pc += 1;
                    self.cpus[node][cpu].status = CpuStatus::Running;
                    self.calendar
                        .push(now + Cycles::new(c), SimEvent::CpuNext { node, cpu });
                    return;
                }
                Some(Action::Access { addr, write }) => {
                    let block = GlobalAddr(addr).block(self.cfg.block_size);
                    match self.dsm.check_access(node, block, write) {
                        AccessCheck::Hit => {
                            now += Cycles::new(LOCAL_ACCESS_COST);
                            self.cpus[node][cpu].pc += 1;
                        }
                        check @ (AccessCheck::Fault | AccessCheck::FaultNeedsPage) => {
                            if check == AccessCheck::FaultNeedsPage {
                                // Allocate the Stache page frame first; the page
                                // handler uses the Sequential key.
                                let page = block.page(self.cfg.block_size);
                                self.calendar.push(
                                    now + self.occ.detect_miss(),
                                    SimEvent::ProtocolEnqueue {
                                        node,
                                        event: ProtocolEvent::PageOp { page },
                                    },
                                );
                            }
                            self.cpus[node][cpu].status = CpuStatus::Stalled { since: now };
                            let token = Self::token_of(node, cpu);
                            self.calendar.push(
                                now + self.occ.detect_miss(),
                                SimEvent::ProtocolEnqueue {
                                    node,
                                    event: ProtocolEvent::AccessFault {
                                        block,
                                        write,
                                        token,
                                    },
                                },
                            );
                            if self.cfg.machine.scheduling == ProtocolScheduling::Multiplexed {
                                // This processor just became idle and may serve
                                // protocol events while it waits.
                                self.try_dispatch_node(node, now);
                            }
                            return;
                        }
                    }
                }
                Some(Action::Barrier) => {
                    self.cpus[node][cpu].pc += 1;
                    self.cpus[node][cpu].status = CpuStatus::AtBarrier;
                    self.barrier_waiting += 1;
                    if self.barrier_waiting == self.cfg.topology.total_cpus() {
                        self.release_barrier(now);
                    } else if self.cfg.machine.scheduling == ProtocolScheduling::Multiplexed {
                        self.try_dispatch_node(node, now);
                    }
                    return;
                }
            }
        }
    }

    fn release_barrier(&mut self, now: Cycles) {
        self.barrier_waiting = 0;
        for node in 0..self.cfg.topology.nodes {
            for cpu in 0..self.cfg.topology.cpus_per_node {
                if self.cpus[node][cpu].status == CpuStatus::AtBarrier {
                    self.cpus[node][cpu].status = CpuStatus::Running;
                    self.calendar.push(
                        now + Cycles::new(BARRIER_RELEASE_COST),
                        SimEvent::CpuNext { node, cpu },
                    );
                }
            }
        }
    }

    /// Finds a free execution slot for a protocol handler on `node`, if any.
    fn find_slot(&mut self, node: usize, now: Cycles) -> Option<Slot> {
        match self.cfg.machine.scheduling {
            ProtocolScheduling::HardwareFsm
            | ProtocolScheduling::Embedded
            | ProtocolScheduling::Dedicated => self.pp_free[node]
                .iter()
                .position(|free| *free)
                .map(Slot::Dedicated),
            ProtocolScheduling::Multiplexed => {
                let cpus = &self.cpus[node];
                let idle = cpus.iter().position(|c| c.is_idle_for_protocol());
                match idle {
                    Some(cpu) => Some(Slot::ComputeCpu(cpu)),
                    None => {
                        // Everyone is computing: fall back to the memory-bus
                        // interrupt (delivered round-robin after 200 cycles).
                        if self.pdqs[node].has_dispatchable() && !self.interrupt_pending[node] {
                            self.interrupt_pending[node] = true;
                            self.interrupts += 1;
                            self.calendar.push(
                                now + self.cfg.params.interrupt_cost,
                                SimEvent::MultInterrupt { node },
                            );
                        }
                        None
                    }
                }
            }
        }
    }

    fn try_dispatch_node(&mut self, node: usize, now: Cycles) {
        loop {
            if !self.pdqs[node].has_dispatchable() {
                return;
            }
            let Some(slot) = self.find_slot(node, now) else {
                return;
            };
            let dispatch = self.pdqs[node]
                .try_dispatch()
                .expect("has_dispatchable guarantees an entry");
            self.dispatch_wait
                .record((now - dispatch.payload.enqueued_at).as_f64());

            // Execute the functional handler now; its timing effects are
            // applied when HandlerDone fires.
            let outcome = self.dsm.handle(node, dispatch.payload.event);
            let occupancy = self
                .occ
                .handler_occupancy(outcome.class(), outcome.memory_blocks);
            let mut end = now + occupancy;
            if outcome.memory_blocks > 0 {
                // Data-carrying handlers move the block over the node's memory
                // bus and contend with other traffic.
                let grant = self.buses[node].access(
                    now,
                    BusTransaction::BlockTransfer {
                        bytes: self.cfg.block_size.bytes() as u32,
                    },
                );
                end = end.max(grant.end);
            }
            self.handlers += 1;
            self.protocol_busy += occupancy;

            match slot {
                Slot::Dedicated(i) => self.pp_free[node][i] = false,
                Slot::ComputeCpu(c) => {
                    self.cpus[node][c].busy_handler = true;
                    let nb = self.cpus[node][c].not_before.max(end);
                    self.cpus[node][c].not_before = nb;
                }
            }
            self.calendar.push(
                end,
                SimEvent::HandlerDone {
                    node,
                    slot,
                    ticket: dispatch.ticket,
                    outcome,
                },
            );
        }
    }

    fn on_handler_done(
        &mut self,
        node: usize,
        slot: Slot,
        ticket: Ticket,
        outcome: HandlerOutcome,
        now: Cycles,
    ) {
        self.pdqs[node]
            .complete(ticket)
            .expect("handler tickets are completed exactly once");
        match slot {
            Slot::Dedicated(i) => self.pp_free[node][i] = true,
            Slot::ComputeCpu(c) => {
                self.cpus[node][c].busy_handler = false;
                if !self.pdqs[node].has_dispatchable() {
                    self.cpus[node][c].interrupted = false;
                }
            }
        }

        // Send the handler's messages.
        for out in &outcome.outgoing {
            if out.dst == node {
                self.calendar.push(
                    now,
                    SimEvent::ProtocolEnqueue {
                        node,
                        event: ProtocolEvent::Incoming {
                            src: node,
                            msg: out.msg,
                        },
                    },
                );
            } else {
                let bytes = if out.msg.carries_data() {
                    self.cfg.block_size.bytes() as u32
                } else {
                    8
                };
                let delivery = self.net.send(now, node, out.dst, bytes);
                self.network_messages += 1;
                self.calendar.push(
                    delivery.arrival,
                    SimEvent::ProtocolEnqueue {
                        node: out.dst,
                        event: ProtocolEvent::Incoming {
                            src: node,
                            msg: out.msg,
                        },
                    },
                );
            }
        }

        // Wake the processors whose misses were satisfied. The satisfied
        // access completes as part of the resume (the data just arrived), so
        // the processor continues past it rather than re-issuing it — this
        // mirrors the "resume, reissue bus transaction / complete load" steps
        // of Table 1 and avoids a retry race with other nodes stealing the
        // block back before the processor gets to run again.
        let resume_cost = self.occ.resume() + self.occ.complete_load();
        for completion in &outcome.completions {
            let (cpu_node, cpu) = Self::cpu_of_token(completion.token);
            debug_assert_eq!(cpu_node, node, "completions always wake local processors");
            if let CpuStatus::Stalled { since } = self.cpus[cpu_node][cpu].status {
                self.miss_latency
                    .record((now + resume_cost - since).as_f64());
                self.cpus[cpu_node][cpu].status = CpuStatus::Running;
                self.cpus[cpu_node][cpu].pc += 1;
                let wake = now.max(self.cpus[cpu_node][cpu].not_before) + resume_cost;
                self.calendar.push(
                    wake,
                    SimEvent::CpuNext {
                        node: cpu_node,
                        cpu,
                    },
                );
            }
        }
        // A processor that needed write access but whose outstanding request
        // only returned a read-only copy stays stalled; the upgrade request is
        // issued immediately on its behalf.
        for refault in &outcome.refaults {
            self.calendar.push(
                now,
                SimEvent::ProtocolEnqueue {
                    node,
                    event: ProtocolEvent::AccessFault {
                        block: refault.block,
                        write: refault.write,
                        token: refault.token,
                    },
                },
            );
        }

        // The completion released the key and the slot; keep dispatching.
        self.try_dispatch_node(node, now);
    }

    fn on_interrupt(&mut self, node: usize, now: Cycles) {
        self.interrupt_pending[node] = false;
        let cpus_per_node = self.cfg.topology.cpus_per_node;
        // Round-robin over the node's processors looking for one to borrow.
        for i in 0..cpus_per_node {
            let candidate = (self.mult_rr[node] + i) % cpus_per_node;
            if self.cpus[node][candidate].status == CpuStatus::Running
                && !self.cpus[node][candidate].busy_handler
            {
                self.mult_rr[node] = (candidate + 1) % cpus_per_node;
                self.cpus[node][candidate].interrupted = true;
                let nb = self.cpus[node][candidate].not_before.max(now);
                self.cpus[node][candidate].not_before = nb;
                break;
            }
        }
        self.try_dispatch_node(node, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineSpec;
    use pdq_dsm::BlockSize;
    use pdq_workloads::Topology;

    fn quick(machine: MachineSpec, nodes: usize, cpus: usize) -> SimReport {
        let config = ClusterConfig::baseline(machine).with_topology(Topology::new(nodes, cpus));
        simulate(config, AppKind::Fft, WorkloadScale(0.08))
    }

    #[test]
    fn simulation_completes_and_produces_sane_numbers() {
        let report = quick(MachineSpec::scoma(), 2, 2);
        assert!(report.execution_cycles > Cycles::ZERO);
        assert!(report.uniprocessor_cycles > report.execution_cycles);
        assert!(report.speedup() > 1.0);
        assert!(report.speedup() <= 4.0);
        assert!(report.faults > 0);
        assert!(report.handlers > 0);
        assert!(report.network_messages > 0);
        assert!(report.mean_miss_latency > 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = quick(MachineSpec::hurricane(2), 2, 2);
        let b = quick(MachineSpec::hurricane(2), 2, 2);
        assert_eq!(a.execution_cycles, b.execution_cycles);
        assert_eq!(a.handlers, b.handlers);
        assert_eq!(a.network_messages, b.network_messages);
    }

    #[test]
    fn scoma_outperforms_single_processor_software_protocols() {
        // Figure 7: S-COMA is faster than both Hurricane 1pp and Hurricane-1
        // 1pp on communication-bound applications.
        let scoma = quick(MachineSpec::scoma(), 2, 4);
        let hurricane = quick(MachineSpec::hurricane(1), 2, 4);
        let hurricane1 = quick(MachineSpec::hurricane1(1), 2, 4);
        assert!(scoma.execution_cycles < hurricane.execution_cycles);
        assert!(hurricane.execution_cycles < hurricane1.execution_cycles);
    }

    #[test]
    fn additional_protocol_processors_help_software_protocols() {
        // The core claim: parallel protocol execution via the PDQ improves
        // performance of software protocols on bandwidth-bound applications.
        let one = quick(MachineSpec::hurricane1(1), 2, 4);
        let four = quick(MachineSpec::hurricane1(4), 2, 4);
        assert!(
            four.execution_cycles < one.execution_cycles,
            "4pp ({}) should beat 1pp ({})",
            four.execution_cycles,
            one.execution_cycles
        );
    }

    #[test]
    fn mult_uses_interrupts_when_every_processor_computes() {
        let report = quick(MachineSpec::hurricane1_mult(), 2, 2);
        assert!(report.execution_cycles > Cycles::ZERO);
        // With only two processors per node and a communication-heavy
        // workload there are times when both are computing, so the interrupt
        // fallback must have fired at least once.
        assert!(report.interrupts > 0);
    }

    #[test]
    fn dispatch_queue_statistics_are_collected() {
        let report = quick(MachineSpec::hurricane(2), 2, 2);
        assert!(report.queue_stats.enqueued > 0);
        assert_eq!(report.queue_stats.enqueued, report.queue_stats.dispatched);
        assert_eq!(report.queue_stats.dispatched, report.queue_stats.completed);
    }

    #[test]
    fn computation_bound_apps_are_insensitive_to_the_protocol_engine() {
        let config = |m| ClusterConfig::baseline(m).with_topology(Topology::new(2, 2));
        let scoma = simulate(
            config(MachineSpec::scoma()),
            AppKind::WaterSp,
            WorkloadScale(0.08),
        );
        let h1 = simulate(
            config(MachineSpec::hurricane1(1)),
            AppKind::WaterSp,
            WorkloadScale(0.08),
        );
        let ratio = h1.execution_cycles.as_f64() / scoma.execution_cycles.as_f64();
        assert!(
            ratio < 1.35,
            "water-sp should be within ~35% of S-COMA, ratio {ratio}"
        );
    }

    #[test]
    fn block_size_can_be_changed() {
        let cfg = ClusterConfig::baseline(MachineSpec::hurricane(2))
            .with_topology(Topology::new(2, 2))
            .with_block_size(BlockSize::B128);
        let report = simulate(cfg, AppKind::Fft, WorkloadScale(0.08));
        assert!(report.execution_cycles > Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "topology must match")]
    fn mismatched_workload_topology_is_rejected() {
        let cfg = ClusterConfig::baseline(MachineSpec::scoma());
        let workload =
            Workload::generate(AppKind::Fft, Topology::new(2, 2), WorkloadScale::quick(), 1);
        let _ = ClusterSim::new(cfg, workload);
    }
}
