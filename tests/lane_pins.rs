//! Golden pins for the BE lane paths the other digest suites do not
//! reach: the learned DCG-BE central dispatcher (with A2C training
//! rounds and a checkpoint/restore across them), TD3's sized grants,
//! and the CERES `local_only` branch that places BE inside the
//! dispatching cluster.
//!
//! Each digest is checked at one and at four workers in-process; the
//! DCG-BE run also checks that restoring a mid-run checkpoint and
//! finishing reproduces the uninterrupted digest.

use tango::{BePolicy, CheckpointPolicy, CloudConfig, EdgeCloudSystem, RunReport, TangoConfig};
use tango_types::SimTime;

/// `dcg_be_cfg()` run for 5 s.
const DCG_BE_DIGEST: u64 = 0x55abc07d5683a70d;
/// `td3_cfg()` run for 5 s.
const TD3_DIGEST: u64 = 0xb61196f49c1b1a34;
/// `ceres_cfg()` run for 2 s.
const CERES_DIGEST: u64 = 0x0676ff6f361fd321;

/// DCG-BE's A2C trains every 32 transitions.
const A2C_TRAIN_INTERVAL: u64 = 32;

/// The paper's Tango stack on the physical testbed, with BE load high
/// enough that A2C completes several training rounds.
fn dcg_be_cfg() -> TangoConfig {
    let mut cfg = TangoConfig::physical_testbed().as_tango();
    cfg.workload.be_rps = 40.0;
    cfg
}

fn td3_cfg() -> TangoConfig {
    let mut cfg = dcg_be_cfg();
    cfg.be_policy = BePolicy::Td3;
    cfg
}

/// CERES with the cloud tier attached: `local_only` BE placement only
/// sees the dispatching edge cluster, so it never pays cloud egress.
fn ceres_cfg() -> TangoConfig {
    let mut cfg = TangoConfig::physical_testbed().as_ceres();
    cfg.cloud = Some(CloudConfig::default());
    cfg
}

fn with_threads(mut cfg: TangoConfig, threads: usize) -> TangoConfig {
    cfg.parallelism = Some(threads);
    cfg
}

fn run(cfg: TangoConfig, secs: u64) -> RunReport {
    EdgeCloudSystem::new(cfg).run(SimTime::from_secs(secs), "pin")
}

#[test]
fn dcg_be_run_and_resume_match_golden() {
    let cfg = with_threads(dcg_be_cfg(), 1);
    let (report, checkpoints) = EdgeCloudSystem::new(cfg.clone())
        .run_checkpointed(SimTime::from_secs(5), "pin", CheckpointPolicy::default())
        .expect("DCG-BE state checkpoints");
    // Every completed BE request was dispatched at least once, and each
    // decision after the first pays its predecessor's reward, so this
    // bounds the A2C transitions from below.
    assert!(
        report.be_throughput > 2 * A2C_TRAIN_INTERVAL,
        "too few BE decisions for two A2C training rounds: {}",
        report.summary()
    );
    assert_eq!(report.digest(), DCG_BE_DIGEST, "{}", report.summary());

    let mid = &checkpoints[checkpoints.len() / 2];
    let resumed = EdgeCloudSystem::restore(cfg, &mid.bytes).expect("restore succeeds");
    assert_eq!(resumed.finish("pin").digest(), DCG_BE_DIGEST);
}

#[test]
fn dcg_be_digest_at_four_threads() {
    let report = run(with_threads(dcg_be_cfg(), 4), 5);
    assert_eq!(report.digest(), DCG_BE_DIGEST, "{}", report.summary());
}

#[test]
fn td3_sized_grants_match_golden() {
    for threads in [1, 4] {
        let report = run(with_threads(td3_cfg(), threads), 5);
        assert_eq!(report.digest(), TD3_DIGEST, "{}", report.summary());
    }
}

#[test]
fn ceres_local_only_matches_golden() {
    for threads in [1, 4] {
        let report = run(with_threads(ceres_cfg(), threads), 2);
        assert!(report.be_throughput > 0, "{}", report.summary());
        assert_eq!(report.cloud_egress_kib, 0);
        assert_eq!(report.digest(), CERES_DIGEST, "{}", report.summary());
    }
}
