//! Traffic scheduling algorithms (§5).
//!
//! * [`dss_lc`] — the **Distributed Service request Scheduling algorithm
//!   for LC requests** (Alg. 2): per request type k, build a flow network
//!   over the geo-nearby candidate nodes and solve a min-cost max-flow
//!   (our `tango-flow` replaces OR-tools). Supply ≥ demand routes
//!   directly; overload splits requests with the random sorting function
//!   ρ(·) into an immediate set R_k and a queued set R′_k routed over
//!   *total* resources scaled by the augmentation factor λ (Eq. 7–8).
//! * [`dcg_be`] — the **DRL Customized algorithm based on GNN for
//!   centralized BE request scheduling** (Alg. 3): GraphSAGE encoding +
//!   A2C with policy-context filtering, plus the GNN-SAC baseline and the
//!   paper's reward shaping (§5.3.1).
//! * [`baselines`] — load-greedy, K8s-native round-robin, and the
//!   history-based weighted `scoring` policy \[42\], all behind the same
//!   [`LcScheduler`] interface; plus the KubeDSM-style batch-migration
//!   planner behind [`migrate::MigrationPlanner`].
//! * [`migrate`] — the defragmentation-pass decision surface: a
//!   [`migrate::MigrationCandidate`] view of every worker's BE pods and
//!   batch [`migrate::MigrationDecision`]s back.
//! * [`td3_be`] — a TD3-style continuous-action BE scheduler: the agent
//!   emits per-candidate CPU/memory grant fractions and placement + grant
//!   sizing land together through [`BeScheduler::schedule_sized`].
//! * [`view`] — the candidate-node view both dispatchers read.
//!
//! The dispatch stage calls the two lane traits directly, one per
//! dispatcher role: [`LcScheduler`] plans a master's whole round of
//! per-type batches (Alg. 2's shape); [`BeScheduler`] picks one node per
//! BE request and learns from the delayed reward (Alg. 3's shape).
//!
//! The schedulers are pure decision engines: they consume [`view`]
//! snapshots prepared by the system layer and return placements; they
//! never touch nodes directly. That is exactly the paper's architecture —
//! dispatchers read the state storage, not the cluster.

pub mod baselines;
pub mod dcg_be;
pub mod dss_lc;
pub mod migrate;
pub mod snap_impls;
pub mod td3_be;
pub mod view;

pub use baselines::{KsNative, KubeDsm, LoadGreedy, Scoring};
pub use dcg_be::{BeScheduler, DcgBe, DcgBeConfig, GnnSacBe, GreedyBe, RoundRobinBe};
pub use dss_lc::{DssLc, LcPlan};
pub use migrate::{MigratablePod, MigrationCandidate, MigrationDecision, MigrationPlanner};
pub use td3_be::{Td3Be, Td3BeConfig};
pub use view::{CandidateNode, LcScheduler, LinkObservation, NodeObservation, TypeBatch};
