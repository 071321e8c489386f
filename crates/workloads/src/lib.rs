//! # pdq-workloads: synthetic application models
//!
//! Synthetic stand-ins for the shared-memory applications of the paper's
//! evaluation (six SPLASH-2 programs and the Split-C `em3d` kernel, Table 2).
//! Each application is modelled by the parameters the paper's discussion
//! identifies as what drives its behaviour — computation-to-communication
//! ratio, sharing pattern, burstiness, write intensity, load imbalance, and
//! sharing granularity — and compiled into a deterministic per-processor
//! script of compute bursts, shared accesses, and barriers that the cluster
//! simulator in `pdq-hurricane` executes.
//!
//! ```
//! use pdq_workloads::{AppKind, Topology, Workload, WorkloadScale};
//!
//! let workload = Workload::generate(AppKind::Fft, Topology::new(2, 4), WorkloadScale::quick(), 1);
//! assert_eq!(workload.cpus(), 8);
//! assert!(workload.remote_accesses() > 0);
//! ```

// Same guard as pdq-core: a malformed doc line leaves its item
// undocumented, which must fail the build rather than warn.
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod app;
pub mod chaos;
mod conn;
pub mod metrics;
pub mod protocol_server;
pub mod server;
pub mod service;
mod trace;
pub mod transport;
pub mod wal;

pub use app::{AppKind, AppParams, SharingPattern};
pub use chaos::{
    adversarial_events, poison_schedule, run_chaos, ChaosConfig, ChaosReport, ChaosService,
    FaultAction, FaultPlan, FaultTransport, KeyOrderRecorder, Scenario, Zipf,
};
pub use metrics::{scrape_metrics, serve_metrics, ConnObs, Observability, WalMetrics};
pub use protocol_server::{
    generate_events, reference_aggregate, run_server, ServerAggregate, ServerConfig, ServerError,
    ServerState,
};
pub use server::{
    client_config, merged_reference_aggregate, pool_wal_dir, serve_poll, serve_poll_observed,
    serve_pool, serve_pool_observed, PollOptions, PollReport, PoolOptions, PoolReport, PoolWal,
};
pub use service::{
    run_client, run_client_events, run_metrics_probe, serve, serve_observed, BatchService,
    ClientReport, Durability, ExecutorService, ProtocolService, Reply,
};
pub use trace::{Action, Topology, Workload, WorkloadScale};
pub use transport::{
    loopback_pair, FillStatus, FrameDecoder, FrameEncoder, FramedStream, LoopbackTransport,
    TcpTransport, Transport, DECODER_SOFT_CAP,
};
pub use wal::{
    recover_dir, replay, scan_bytes, scan_bytes_full, FaultSink, SharedSink, WalFaultPlan,
    WalRecovery, WalSnapshot, WalWriter,
};

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any topology and seed produces a well-formed workload: scripts for
        /// every processor, one barrier per phase, and non-negative counters
        /// that add up.
        #[test]
        fn workloads_are_well_formed(nodes in 1usize..6, cpus in 1usize..6, seed in 0u64..1000) {
            let topo = Topology::new(nodes, cpus);
            let w = Workload::generate(AppKind::Barnes, topo, WorkloadScale::quick(), seed);
            prop_assert_eq!(w.cpus(), topo.total_cpus());
            let mut compute = 0u64;
            let mut accesses = 0u64;
            for cpu in 0..w.cpus() {
                let phases = AppKind::Barnes.params().phases;
                let barriers = w.script(cpu).iter().filter(|a| matches!(a, Action::Barrier)).count();
                prop_assert_eq!(barriers as u32, phases);
                for action in w.script(cpu) {
                    match action {
                        Action::Compute(c) => { compute += c; prop_assert!(*c > 0); }
                        Action::Access { .. } => accesses += 1,
                        Action::Barrier => {}
                    }
                }
            }
            prop_assert_eq!(compute, w.total_compute());
            prop_assert_eq!(accesses, w.total_accesses());
            prop_assert!(w.remote_accesses() <= w.total_accesses());
        }
    }
}
