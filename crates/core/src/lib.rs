//! # boomflow — SimPoint-based hotspot & energy-efficiency analysis
//!
//! The primary contribution of the reproduced paper: an end-to-end flow
//! that characterizes the power and performance of BOOM out-of-order core
//! configurations on arbitrarily large workloads by simulating only a few
//! representative *simulation points* (paper Figs. 3–4):
//!
//! 1. **Profile** — run the workload on the fast functional simulator
//!    ([`rv_isa::cpu::Cpu`]), collecting basic-block vectors per interval
//!    (the gem5 role).
//! 2. **Phase analysis** — cluster the BBVs with [`simpoint`] and pick the
//!    highest-weight points covering ≥ 90 % of execution (Table II).
//! 3. **Checkpoint** — capture architectural checkpoints just before each
//!    point (the Spike role).
//! 4. **Detailed simulation** — restore each checkpoint into the
//!    cycle-level BOOM model ([`boom_uarch::Core`]), warm caches and
//!    predictors, then measure one interval (the Chipyard/Verilator role).
//! 5. **Power estimation** — convert each interval's activity into
//!    per-component power with [`rtl_power`] (the Joules/ASAP7 role) and
//!    combine intervals by cluster weight.
//!
//! The result ([`WorkloadResult`]) carries everything the paper's
//! evaluation section reports: per-component power (Figs. 5–8), component
//! contributions (Fig. 9), IPC (Fig. 10), performance-per-watt (Fig. 11),
//! and the SimPoint speedup (§IV-A).
//!
//! The flow is staged: stages 1–3 depend only on the workload and the
//! [`FlowConfig`], not on the BOOM configuration, so an [`ArtifactStore`]
//! memoizes them per workload and a multi-configuration campaign
//! ([`supervise_campaign`], `boomflow --config all`) profiles, clusters,
//! and checkpoints each workload exactly once. Detailed simulation is
//! scheduled point-by-point across the whole configuration × workload
//! matrix on a [`WorkPool`] of `--jobs N` workers ([`CampaignOptions`]).
//!
//! ```no_run
//! use boomflow::{run_simpoint_flow, FlowConfig};
//! use boom_uarch::BoomConfig;
//! use rv_workloads::{by_name, Scale};
//!
//! let workload = by_name("sha", Scale::Small).unwrap();
//! let result = run_simpoint_flow(&BoomConfig::medium(), &workload, &FlowConfig::default())
//!     .unwrap();
//! println!("{}: IPC {:.2}, {:.1} mW tile, {:.1} IPC/W",
//!          result.name, result.ipc, result.tile_power_mw(), result.perf_per_watt());
//! ```

#![warn(missing_docs)]
pub mod artifacts;
pub mod diskcache;
pub mod flow;
pub mod journal;
pub mod pool;
pub mod protocol;
pub mod report;
pub mod scheduler;
pub mod server;
pub mod supervisor;
pub mod sweep;
pub(crate) mod sync;

pub use artifacts::{ArtifactStore, CacheStats, CheckpointSet, PlannedPoint};
pub use diskcache::{CacheStage, DiskFaultInjection};
pub use flow::{
    run_full, run_simpoint_flow, run_simpoint_flow_with_store, FlowConfig, FlowError,
    FullRunResult, WorkloadResult,
};
pub use journal::{
    campaign_fingerprint, campaign_fingerprint_with, sweep_fingerprint, CampaignJournal,
    JournalError, JournalReplay,
};
pub use pool::WorkPool;
pub use protocol::{
    decode_client, decode_server, encode_client, encode_server, read_frame, request_id,
    write_frame, CampaignRequest, ClientMsg, ProtocolError, Request, ServerMsg, SweepRequest,
    PROTOCOL_VERSION,
};
pub use scheduler::{default_jobs, CampaignOptions, ProgressHook};
pub use server::{
    connect, realize_campaign, realize_sweep, request_events, RealizedSweep, ServeAddr,
    ServeOptions, ServeStream, Server,
};
pub use supervisor::{
    supervise_campaign, supervise_matrix_with, CampaignReport, CampaignStats, CellFailure,
    CellResult, CoRunCellResult, CoreRunResult, Degradation, FailureKind, FaultInjection,
    PointFailure, RetryPolicy,
};
pub use sweep::{
    admit, all_fixed_latency, finalize_config, run_sweep, rung_schedule, FrontierPoint, RungSpec,
    RungSummary, SweepExtras, SweepKnob, SweepOptions, SweepReport, SweepSpec, SweepStats,
};
