//! The Tango simulator benchmark: one workload, one seed, one run.
//!
//! ```text
//! perfbench --workload <tango_calm|paper_scale|ops_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run first re-runs the workload at its default seed and reports
//! that run's digest for comparison against the pinned value. With
//! `--trace 0` it then repeats measured passes (each a fixed set of
//! episodes derived from `--seed`) while `--seconds` of host time allow,
//! times `EdgeCloudSystem::new` plus attachments along the first pass,
//! and reports the end-to-end metrics. With `--trace 1` it alternates
//! untraced and traced episodes, replays the layers' public functions on
//! inputs shaped like the workload, prices checkpoints, and reports the
//! per-layer metrics together with its spans.
//!
//! Output is one JSON line on stdout; `run.py` checks it against the
//! pinned digest, stamps it and prints the benchmark's result line.

mod replay;
mod trace;
mod workloads;

use replay::median;
use std::fmt::Write as _;
use std::time::Instant;
use tango::{CheckpointPolicy, EdgeCloudSystem, RunAudit, RunReport};
use tango_ctrl::MirrorStats;
use trace::{Spans, StampSink, Stamps, BOUNDARIES};
use workloads::{Kind, Workload, DEFAULT_SEED};

/// `EdgeCloudSystem::new` timings per run, spread over the episodes.
const SETUP_BUILDS: usize = 100;
/// Host seconds of alternating untraced/traced episode pairs (at least
/// one pair) behind `trace.overhead_frac`.
const OVERHEAD_BUDGET_S: f64 = 6.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::by_name(name).ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Named pass/fail checks, and the tally of checked runs (episodes and
/// digest comparisons) with how many of them failed a check.
#[derive(Default)]
struct Checks {
    list: Vec<(String, bool, String)>,
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, name: &str, ok: bool, detail: String) -> bool {
        if !ok {
            eprintln!("CHECK FAILED: {name}: {detail}");
        }
        self.list.push((name.to_string(), ok, detail));
        ok
    }

    /// Conservation and liveness audit of one episode.
    fn episode(&mut self, seed: u64, audit: &RunAudit) {
        self.attempted += 1;
        let conserved = self.check(
            "audit.conserved",
            audit.conserved(),
            format!("seed {seed}: {audit:?}"),
        );
        let live = self.check(
            "audit.no_running_on_down_nodes",
            audit.running_on_down_nodes == 0,
            format!("seed {seed}: {}", audit.running_on_down_nodes),
        );
        if !(conserved && live) {
            self.failed += 1;
        }
    }

    /// Equality of two digests that must agree.
    fn same(&mut self, name: &str, a: u64, b: u64) {
        self.attempted += 1;
        if !self.check(name, a == b, format!("{a:#018x} vs {b:#018x}")) {
            self.failed += 1;
        }
    }
}

struct Episode {
    host_s: f64,
    report: RunReport,
    audit: RunAudit,
    mirror: Option<MirrorStats>,
    stamps: Option<Stamps>,
}

fn episode(w: &Workload, seed: u64, threads: usize, traced: bool) -> Episode {
    let (mut sys, mirror) = w.build(w.config(seed, threads));
    let reader = traced.then(|| {
        let (sink, reader) = StampSink::new();
        sys.set_trace(Box::new(sink));
        reader
    });
    let t = Instant::now();
    let (report, audit) = sys.run_audited(w.horizon, w.name);
    let host_s = t.elapsed().as_secs_f64();
    Episode {
        host_s,
        report,
        audit,
        mirror: mirror.map(|m| m.stats()),
        stamps: reader.map(|r| r.take().expect("the finished run dropped its sink")),
    }
}

/// Checkpoint pass: run with periodic checkpoints, restore the last one,
/// finish it, and require the resumed run's digest to equal the
/// uninterrupted one. Returns (digest, restore s, encode s, bytes).
fn checkpointed(
    w: &Workload,
    seed: u64,
    threads: usize,
    horizon: tango_types::SimTime,
    checks: &mut Checks,
) -> (u64, f64, f64, usize) {
    let cfg = w.config(seed, threads);
    let (sys, _mirror) = w.build(cfg.clone());
    let policy = CheckpointPolicy {
        every_n_ticks: 2,
        keep_last_k: 1,
    };
    let (report, cps) = sys
        .run_checkpointed(horizon, w.name, policy)
        .expect("workload state is checkpointable");
    let last = cps.last().expect("horizon spans a checkpoint");
    let mut restore_s = Vec::new();
    let mut resumed = None;
    for _ in 0..3 {
        let t = Instant::now();
        let r = EdgeCloudSystem::restore(cfg.clone(), &last.bytes).expect("checkpoint restores");
        restore_s.push(t.elapsed().as_secs_f64());
        resumed = Some(r);
    }
    let resumed = resumed.expect("restored at least once");
    let encode_s: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(resumed.snapshot().expect("restored run re-encodes"));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let digest = report.digest();
    checks.same(
        "checkpoint.resume_digest",
        resumed.finish(w.name).digest(),
        digest,
    );
    (
        digest,
        median(&restore_s),
        median(&encode_s),
        last.bytes.len(),
    )
}

/// The pinned-digest run at the default seed (plus, on `ops_churn`, the
/// checkpoint-resume check).
fn golden(w: &Workload, threads: usize, checks: &mut Checks) -> u64 {
    if w.kind == Kind::OpsChurn {
        return checkpointed(w, DEFAULT_SEED, threads, w.golden_horizon, checks).0;
    }
    let (sys, _mirror) = w.build(w.config(DEFAULT_SEED, threads));
    let (report, audit) = sys.run_audited(w.golden_horizon, "golden");
    checks.episode(DEFAULT_SEED, &audit);
    report.digest()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// End-to-end pass (`--trace 0`).
fn measure(a: &Args, threads: usize, checks: &mut Checks) -> (Vec<(&'static str, f64)>, String) {
    let w = &a.workload;
    let seeds = w.episode_seeds(a.seed);
    let sim_s = seeds.len() as f64 * w.horizon.as_secs_f64();

    // Passes of the same episodes until the next pass would overrun
    // `--seconds`. Each episode's host time is its median over passes,
    // which drops bursts of host noise; the metric averages those over
    // the episodes, whose layouts and churn differ in cost. The first
    // pass also times several builds of each episode's config right
    // before running it, so set-up samples spread over the run.
    let per_seed = SETUP_BUILDS.div_ceil(seeds.len());
    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let start = Instant::now();
    let mut host: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut first: Vec<Episode> = Vec::new();
    let mut passes = 0;
    loop {
        let pass_start = Instant::now();
        for (i, &s) in seeds.iter().enumerate() {
            if passes == 0 {
                setups[i] = (0..per_seed)
                    .map(|_| {
                        let cfg = w.config(s, threads);
                        let t = Instant::now();
                        let built = w.build(cfg);
                        let dt = t.elapsed().as_secs_f64();
                        drop(built);
                        dt
                    })
                    .collect();
            }
            let e = episode(w, s, threads, false);
            host[i].push(e.host_s);
            checks.episode(s, &e.audit);
            if passes == 0 {
                first.push(e);
            } else {
                checks.same(
                    "repeat.identical_digest",
                    e.report.digest(),
                    first[i].report.digest(),
                );
            }
        }
        passes += 1;
        let pass_s = pass_start.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + pass_s > a.seconds {
            break;
        }
    }
    if w.kind == Kind::OpsChurn {
        let d = checkpointed(w, seeds[0], threads, w.horizon, checks).0;
        checks.same(
            "checkpoint.matches_audited_run",
            d,
            first[0].report.digest(),
        );
    }

    let n = first.len() as f64;
    let avg = |f: &dyn Fn(&Episode) -> f64| first.iter().map(f).sum::<f64>() / n;
    let sum = |f: &dyn Fn(&Episode) -> f64| first.iter().map(f).sum::<f64>();
    let metrics = vec![
        (
            "host_s_per_sim_s",
            host.iter().map(|h| median(h)).sum::<f64>() / sim_s,
        ),
        ("setup_s", median(&setups.concat())),
        ("peak_rss_mb", peak_rss_mb()),
        ("qos_satisfaction", avg(&|e| e.report.qos_satisfaction)),
        (
            "be_throughput_per_sim_s",
            sum(&|e| e.report.be_throughput as f64) / sim_s,
        ),
        ("lc_p95_ms", avg(&|e| e.report.lc_p95_ms)),
        ("mean_utilization", avg(&|e| e.report.mean_utilization)),
        (
            "served_frac",
            sum(&|e| e.audit.completed as f64) / sum(&|e| e.audit.total as f64),
        ),
    ];
    let digests: Vec<String> = first
        .iter()
        .map(|e| format!("\"{:#018x}\"", e.report.digest()))
        .collect();
    let samples = format!(
        "{{\"passes\": {passes}, \"episodes_per_pass\": {}, \"horizon_s\": {}, \"setups_per_episode\": {per_seed}, \"episode_host_s\": {host:?}, \"episode_digests\": [{}]}}",
        seeds.len(),
        w.horizon.as_secs_f64(),
        digests.join(", ")
    );
    (metrics, samples)
}

/// Per-layer pass (`--trace 1`).
fn layers(
    a: &Args,
    threads: usize,
    checks: &mut Checks,
    spans: &mut Spans,
) -> (Vec<(&'static str, f64)>, String) {
    let w = &a.workload;
    let seed = w.episode_seeds(a.seed)[0];
    // alternate untraced and traced episodes of the same seed; the
    // first traced one supplies the stamps
    let start = Instant::now();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced: Option<(Episode, Option<usize>)> = None;
    while plain_s.is_empty() || start.elapsed().as_secs_f64() < OVERHEAD_BUDGET_S {
        let plain = spans.within("core.run_audited.untraced", |_| {
            episode(w, seed, threads, false)
        });
        checks.episode(seed, &plain.audit);
        plain_s.push(plain.host_s);
        let t = spans.within("core.run_audited.traced", |sp| {
            (episode(w, seed, threads, true), sp.current())
        });
        checks.same(
            "trace.sink_leaves_digest",
            t.0.report.digest(),
            plain.report.digest(),
        );
        traced_s.push(t.0.host_s);
        traced.get_or_insert(t);
    }
    let (traced, traced_span) = traced.expect("at least one traced episode");
    let st = traced
        .stamps
        .as_ref()
        .expect("traced episode carries stamps");
    let r = &traced.report;
    let f = &r.faults;
    let arrivals = st.count_of("arrival") as f64;
    let decisions = (st.count_of("dispatch.lc") + st.count_of("dispatch.be")) as f64;
    let mirror = traced.mirror.unwrap_or_default();
    let frames = (mirror.full_frames + mirror.delta_frames) as f64;

    let mut m: Vec<(&'static str, f64)> = vec![
        ("dispatch.be_decisions", st.count_of("dispatch.be") as f64),
        ("dispatch.be.span_s", st.host_s_of("dispatch.be")),
        ("dispatch.lc_decisions", st.count_of("dispatch.lc") as f64),
        ("dispatch.lc.span_s", st.host_s_of("dispatch.lc")),
        ("dispatch.decisions_per_arrival", ratio(decisions, arrivals)),
        ("lifecycle.arrivals", arrivals),
        ("lifecycle.arrival.span_s", st.host_s_of("arrival")),
        (
            "lifecycle.admit_ratio",
            ratio(st.admitted as f64, st.count_of("admission") as f64),
        ),
        ("lifecycle.bounced_deliveries", st.bounced as f64),
        ("lifecycle.completions", st.count_of("completion") as f64),
        ("lifecycle.be_evictions", r.be_evictions as f64),
        ("lifecycle.admission.span_s", st.host_s_of("admission")),
        ("lifecycle.completion.span_s", st.host_s_of("completion")),
        ("hrm.dvpa_ops", r.dvpa_ops as f64),
        ("faults.node_crashes", f.node_crashes as f64),
        ("faults.rescheduled", f.rescheduled as f64),
        ("faults.down_node_dispatches", f.down_node_dispatches as f64),
        ("migration.started", r.migrations_started as f64),
        (
            "migration.landed_ratio",
            ratio(r.migrations_completed as f64, r.migrations_started as f64),
        ),
        ("migration.egress_kib", r.cloud_egress_kib as f64),
        (
            "ctrl.mirror_delta_ratio",
            ratio(mirror.delta_frames as f64, frames),
        ),
        ("ctrl.mirror_rows", mirror.rows_published as f64),
        (
            "trace.overhead_frac",
            median(&traced_s) / median(&plain_s) - 1.0,
        ),
    ];

    let replayed = spans.within("replay", |sp| {
        let shape = sp.within("replay.shape", |_| replay::Shape::new(w, seed, threads));
        replay::run(&shape, seed, w.horizon, sp)
    });
    m.extend(replayed);

    // ops_churn checkpoints a whole episode; the calm workloads a short
    // prefix, enough for one mid-run checkpoint
    let horizon = if w.kind == Kind::OpsChurn {
        w.horizon
    } else {
        w.golden_horizon
    };
    let (_, restore_s, encode_s, bytes) = spans.within("core.run_checkpointed", |_| {
        checkpointed(w, seed, threads, horizon, checks)
    });
    m.extend([
        ("snap.encode_ms", encode_s * 1e3),
        ("snap.restore_ms", restore_s * 1e3),
        ("snap.bytes", bytes as f64),
    ]);

    let mut boundaries = String::from("[");
    for (i, b) in BOUNDARIES.iter().enumerate() {
        let _ = write!(
            boundaries,
            "{}{{\"name\": \"core.boundary.{b}\", \"parent\": {}, \"count\": {}, \"host_s\": {}}}",
            if i > 0 { ", " } else { "" },
            traced_span.map_or("null".to_string(), |p| p.to_string()),
            st.count_of(b),
            st.host_s_of(b),
        );
    }
    boundaries.push(']');
    let samples = format!(
        "{{\"pairs\": {}, \"horizon_s\": {}, \"untraced_host_s\": {:?}, \"traced_host_s\": {:?}, \"boundaries\": {boundaries}}}",
        plain_s.len(),
        w.horizon.as_secs_f64(),
        plain_s,
        traced_s,
    );
    (m, samples)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if std::env::var_os("TANGO_THREADS").is_none() {
        std::env::set_var("TANGO_THREADS", "1");
    }
    let threads = tango_par::resolve(None);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut checks = Checks::default();
    let mut spans = Spans::new();
    let w = args.workload;
    let golden_digest = spans.within("golden", |_| golden(&w, threads, &mut checks));
    let (metrics, samples) = if args.trace {
        layers(&args, threads, &mut checks, &mut spans)
    } else {
        measure(&args, threads, &mut checks)
    };

    for (k, v) in &metrics {
        checks.check("metrics.finite", v.is_finite(), format!("{k} = {v}"));
    }
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"threads\": {threads}, \"nproc\": {nproc}, \"golden_seed\": {DEFAULT_SEED}, \"golden_horizon_s\": {}, \"golden_digest\": \"{golden_digest:#018x}\", \"attempted\": {}, \"failed\": {}, \"samples\": {samples}, \"checks\": [",
        w.name,
        args.seed,
        args.trace as u8,
        w.golden_horizon.as_secs_f64(),
        checks.attempted,
        checks.failed,
    );
    // collapse repeated checks to one entry per name
    let mut names: Vec<&str> = checks.list.iter().map(|c| c.0.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    for (i, n) in names.iter().enumerate() {
        let of: Vec<_> = checks.list.iter().filter(|c| c.0 == *n).collect();
        let bad = of.iter().find(|c| !c.1);
        let _ = write!(
            out,
            "{}{{\"name\": \"{n}\", \"ok\": {}, \"count\": {}, \"detail\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            bad.is_none(),
            of.len(),
            bad.map_or(String::new(), |c| c.2.replace('"', "'")),
        );
    }
    out.push_str("], \"metrics\": {");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(out, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
    }
    out.push_str("}, \"spans\": [");
    for (i, s) in spans.all().iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}",
            if i > 0 { ", " } else { "" },
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start_s,
            s.end_s,
        );
    }
    out.push_str("]}");
    println!("{out}");
}
