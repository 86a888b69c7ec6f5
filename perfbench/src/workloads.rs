//! The three benchmark workloads: configurations, attachments and the
//! seeds each measured pass runs.
//!
//! Every workload is open-loop in simulated time: the seeded trace fixes
//! arrivals whatever the system does. The run seed becomes `cfg.seed`
//! of the first episode; further episodes of a pass use seeds derived
//! from it, so one pass averages over several substrate layouts (the
//! 16-cluster presets draw 3–20 workers per cluster, which moves host
//! cost and utilization by ±10% from one layout to the next).

use tango::config::KeepAliveConfig;
use tango::{BePolicy, CloudConfig, DefragConfig, EdgeCloudSystem, FaultPlan, TangoConfig};
use tango_ctrl::MirrorHandle;
use tango_types::SimTime;
use tango_workload::{DiurnalProfile, ServiceCatalog, TraceGenerator, TraceSpec};

/// Which preset a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `dual_space(16).as_tango()`: DSS-LC + DCG-BE + HRM + re-assurance.
    TangoCalm,
    /// `paper_scale()`: 104 clusters, DSS-LC + load-greedy BE + HRM.
    PaperScale,
    /// `dual_space(16)` with load-greedy BE, node churn, keep-alive
    /// detection, the cloud tier, defrag migrations and a state mirror.
    OpsChurn,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Which preset.
    pub kind: Kind,
    /// Episodes (distinct derived seeds) per measured pass.
    pub episodes: usize,
    /// Simulated horizon of one episode.
    pub horizon: SimTime,
    /// Horizon of the pinned-digest check at the default seed.
    pub golden_horizon: SimTime,
}

/// Seed of the pinned-digest check (the presets' own default seed).
pub const DEFAULT_SEED: u64 = 42;

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tango_calm",
        kind: Kind::TangoCalm,
        episodes: 4,
        horizon: SimTime::from_millis(2_000),
        golden_horizon: SimTime::from_millis(400),
    },
    Workload {
        name: "paper_scale",
        kind: Kind::PaperScale,
        episodes: 4,
        horizon: SimTime::from_millis(2_000),
        golden_horizon: SimTime::from_millis(2_000),
    },
    Workload {
        name: "ops_churn",
        kind: Kind::OpsChurn,
        episodes: 16,
        horizon: SimTime::from_millis(4_000),
        golden_horizon: SimTime::from_millis(3_000),
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The configuration of one episode.
    pub fn config(&self, seed: u64, threads: usize) -> TangoConfig {
        let mut cfg = match self.kind {
            Kind::TangoCalm => TangoConfig::dual_space(16).as_tango(),
            Kind::PaperScale => TangoConfig::paper_scale(),
            Kind::OpsChurn => {
                let mut c = TangoConfig::dual_space(16);
                c.be_policy = BePolicy::LoadGreedy;
                c.faults = FaultPlan::new().node_churn(
                    SimTime::from_secs(4),
                    SimTime::from_millis(500),
                    seed ^ 0xC4_0C4,
                );
                c.detection = Some(KeepAliveConfig::default());
                c.cloud = Some(CloudConfig::default());
                c.defrag = Some(DefragConfig {
                    every_n_ticks: 2,
                    max_moves: 16,
                    hot_threshold: 0.5,
                    cold_threshold: 0.35,
                });
                c
            }
        };
        cfg.seed = seed;
        cfg.parallelism = Some(threads);
        cfg
    }

    /// `EdgeCloudSystem::new` plus the workload's attachments.
    pub fn build(&self, cfg: TangoConfig) -> (EdgeCloudSystem, Option<MirrorHandle>) {
        let mut sys = EdgeCloudSystem::new(cfg);
        let mirror = (self.kind == Kind::OpsChurn).then(|| sys.attach_mirror());
        (sys, mirror)
    }

    /// Seeds of one pass's episodes: the run seed first, then seeds
    /// derived from it.
    pub fn episode_seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.episodes as u64)
            .map(|i| seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    /// The arrival trace the system generates for `cfg` over `horizon`
    /// (the same spec `EdgeCloudSystem` primes its engine with).
    pub fn trace(
        cfg: &TangoConfig,
        catalog: &ServiceCatalog,
        horizon: SimTime,
    ) -> Vec<tango_workload::TraceEvent> {
        let spec = TraceSpec {
            diurnal: if cfg.workload.diurnal {
                DiurnalProfile::default()
            } else {
                DiurnalProfile::flat()
            },
            ..TraceSpec::new(
                cfg.workload.pattern(),
                cfg.clusters,
                horizon,
                cfg.seed ^ 0x77ace,
            )
        };
        TraceGenerator::new(catalog, spec).collect_events()
    }
}
