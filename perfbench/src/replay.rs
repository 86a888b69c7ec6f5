//! Layer replays: the benchmark calls the schedulers', the GNN's, the
//! workload generator's and the topology's public functions on inputs
//! shaped like a workload, and times each call from outside.
//!
//! The inputs come from a short shaping run of the workload's own
//! configuration with a state mirror attached: its latest snapshot gives
//! the candidate rows (capacities, availabilities, slack, liveness), the
//! workload's trace gives the request demands and the per-round LC
//! batches. The shaping run swaps DCG-BE for load-greedy BE, which
//! leaves the substrate layout and the trace unchanged and keeps the
//! shaping cheap.

use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tango::{BePolicy, TangoConfig};
use tango_ctrl::MirrorNode;
use tango_gnn::{Encoder, EncoderKind, GnnEncoder};
use tango_net::topology::NetworkTopology;
use tango_sched::dcg_be::{build_graph, short_term_reward, FEATURE_DIM};
use tango_sched::{
    BeScheduler, CandidateNode, DcgBe, DcgBeConfig, DssLc, GreedyBe, LinkObservation,
    NodeObservation, TypeBatch,
};
use tango_types::{ClusterId, RequestId, Resources, ServiceClass, ServiceId, SimTime};
use tango_workload::ServiceCatalog;

/// Simulated length of the shaping run.
const SHAPE_HORIZON: SimTime = SimTime::from_millis(1_000);
/// Each replay makes at least this many calls...
const MIN_CALLS: usize = 24;
/// ...and keeps calling until this much host time has passed...
const BUDGET: Duration = Duration::from_millis(600);
/// ...or this many calls were made.
const MAX_CALLS: usize = 4_000;

/// Replay inputs shaped like one workload.
pub struct Shape {
    cfg: TangoConfig,
    catalog: ServiceCatalog,
    /// BE requests in trace order, each with the global view of its
    /// service as seen from the central BE dispatcher.
    be: Vec<(Resources, Arc<Vec<CandidateNode>>)>,
    /// LC type batches: one per (origin, service, dispatch round) of the
    /// trace, over the origin's geo-nearby candidates.
    lc: Vec<TypeBatch>,
}

fn topology_of(cfg: &TangoConfig) -> NetworkTopology {
    let mut topo_cfg = cfg.topology.clone();
    topo_cfg.clusters = cfg.clusters;
    topo_cfg.seed = cfg.seed ^ 0x7070;
    NetworkTopology::generate(&topo_cfg)
}

/// Requests-per-round capacity of a link, as the dispatcher discretizes
/// Eq. 4's c_{i,j}.
fn link_capacity(
    topo: &NetworkTopology,
    interval: SimTime,
    a: ClusterId,
    b: ClusterId,
    kib: u64,
) -> u32 {
    let bits_per_round = topo.bandwidth_mbps(a, b).max(1) as u128 * interval.as_micros() as u128;
    let bits_per_req = kib.max(1) as u128 * 8_192;
    (bits_per_round / bits_per_req).clamp(1, 100_000) as u32
}

fn view(
    rows: &[MirrorNode],
    topo: &NetworkTopology,
    cfg: &TangoConfig,
    catalog: &ServiceCatalog,
    service: ServiceId,
    vantage: ClusterId,
    clusters: Option<&[ClusterId]>,
) -> Vec<CandidateNode> {
    let spec = catalog.get(service);
    rows.iter()
        .filter(|r| !r.is_master && r.alive && topo.is_reachable(vantage, r.cluster))
        .filter(|r| clusters.is_none_or(|set| set.contains(&r.cluster)))
        .map(|r| {
            let obs = NodeObservation {
                node: r.node,
                cluster: r.cluster,
                total: r.total,
                available_lc: r.available + r.be_held,
                available_be: r.available,
                slack: r
                    .slack
                    .iter()
                    .find(|(s, _)| *s == service)
                    .map_or(1.0, |(_, v)| *v),
            };
            let link = LinkObservation {
                delay: topo.transfer_time(vantage, r.cluster, spec.payload_kib),
                capacity: link_capacity(
                    topo,
                    cfg.dispatch_interval,
                    vantage,
                    r.cluster,
                    spec.payload_kib,
                ),
            };
            CandidateNode::from_observation(obs, link, spec.min_request, r.reserved, true)
        })
        .collect()
}

impl Shape {
    /// Run the shaping pass for `w` at `seed` and build the replay inputs.
    pub fn new(w: &Workload, seed: u64, threads: usize) -> Shape {
        let mut cfg = w.config(seed, threads);
        if matches!(cfg.be_policy, BePolicy::DcgBe(_)) {
            cfg.be_policy = BePolicy::LoadGreedy;
        }
        let (mut sys, mirror) = w.build(cfg.clone());
        let mirror = mirror.unwrap_or_else(|| sys.attach_mirror());
        let _ = sys.run(SHAPE_HORIZON, "shape");
        let rows = mirror
            .latest()
            .expect("the shaping run published a mirror frame")
            .nodes;

        let catalog = ServiceCatalog::standard();
        let mut topo = topology_of(&cfg);
        let central = topo.most_central();
        if let Some(cloud) = &cfg.cloud {
            topo.attach_cloud(cloud.one_way_base, cloud.us_per_km, cloud.bandwidth_mbps);
        }
        let trace = Workload::trace(&cfg, &catalog, SHAPE_HORIZON);

        let mut be_views: BTreeMap<ServiceId, Arc<Vec<CandidateNode>>> = BTreeMap::new();
        let mut lc_views: BTreeMap<(ClusterId, ServiceId), Arc<Vec<CandidateNode>>> =
            BTreeMap::new();
        let mut rounds: BTreeMap<(u64, ClusterId, ServiceId), Vec<RequestId>> = BTreeMap::new();
        let mut be = Vec::new();
        for (i, ev) in trace.iter().enumerate() {
            match ev.class {
                ServiceClass::Be => {
                    let v = be_views.entry(ev.service).or_insert_with(|| {
                        Arc::new(view(
                            &rows, &topo, &cfg, &catalog, ev.service, central, None,
                        ))
                    });
                    be.push((ev.demand, Arc::clone(v)));
                }
                ServiceClass::Lc => {
                    let round = ev.at.as_micros() / cfg.dispatch_interval.as_micros().max(1);
                    rounds
                        .entry((round, ev.origin, ev.service))
                        .or_default()
                        .push(RequestId(i as u64));
                }
            }
        }
        let lc = rounds
            .into_iter()
            .map(|((_, origin, service), requests)| {
                let nodes = lc_views.entry((origin, service)).or_insert_with(|| {
                    let mut set = topo.clusters_within(origin, cfg.geo_radius_km);
                    set.retain(|c| c.index() < cfg.clusters);
                    set.push(origin);
                    Arc::new(view(
                        &rows,
                        &topo,
                        &cfg,
                        &catalog,
                        service,
                        origin,
                        Some(&set),
                    ))
                });
                TypeBatch {
                    service,
                    requests,
                    nodes: Arc::clone(nodes),
                }
            })
            .collect();
        Shape {
            cfg,
            catalog,
            be,
            lc,
        }
    }
}

/// Time `call(prepare(i))` for i = 0, 1, 2, ... under the replay
/// budget, leaving `prepare` out of the timing; returns per-call seconds.
fn timed<T>(mut prepare: impl FnMut(usize) -> T, mut call: impl FnMut(T)) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MAX_CALLS && (out.len() < MIN_CALLS || start.elapsed() < BUDGET) {
        let input = prepare(out.len());
        let t = Instant::now();
        call(input);
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The replayed layer metrics, each in the unit its name carries.
pub fn run(
    shape: &Shape,
    seed: u64,
    horizon: SimTime,
    spans: &mut crate::trace::Spans,
) -> Vec<(&'static str, f64)> {
    let be = &shape.be;
    let lc = &shape.lc;
    assert!(
        !be.is_empty() && !lc.is_empty(),
        "shaping trace has BE and LC requests"
    );
    let mut out = Vec::new();
    let us = |xs: &[f64]| median(xs) * 1e6;

    let t = spans.within("sched.build_graph", |_| {
        timed(
            |i| &be[i % be.len()],
            |(d, nodes)| {
                black_box(build_graph(black_box(d), nodes));
            },
        )
    });
    out.push(("sched.be_graph_us", us(&t)));

    // a graph built fresh per call, as DCG-BE does, against one graph
    // reused across calls
    let sage = || GnnEncoder::paper_shape(EncoderKind::Sage { p: 3 }, FEATURE_DIM, 32, 16, seed);
    let mut enc = sage();
    let t = spans.within("gnn.forward_fresh", |_| {
        timed(
            |i| {
                let (d, nodes) = &be[i % be.len()];
                build_graph(d, nodes)
            },
            |g| {
                black_box(enc.forward(black_box(&g)));
            },
        )
    });
    out.push(("gnn.sage_forward_fresh_us", us(&t)));

    let mut enc = sage();
    let (d, nodes) = &be[0];
    let g = build_graph(d, nodes);
    let t = spans.within("gnn.forward_reused", |_| {
        timed(
            |_| &g,
            |g| {
                black_box(enc.forward(black_box(g)));
            },
        )
    });
    out.push(("gnn.sage_forward_reused_us", us(&t)));

    // schedule + feedback per decision; the mean amortizes the A2C
    // training round every `train_interval` decisions
    let mut dcg = DcgBe::new(DcgBeConfig {
        seed,
        ..DcgBeConfig::default()
    });
    let t = spans.within("sched.dcg_be", |_| {
        timed(
            |i| (&be[i % be.len()], &be[(i + 1) % be.len()]),
            |((d, nodes), (nd, nn))| {
                let pick = dcg.schedule(d, nodes);
                let avail = pick
                    .and_then(|n| nodes.iter().find(|c| c.node == n))
                    .map_or(Resources::ZERO, |c| c.available_be);
                dcg.feedback(short_term_reward(d, &avail), nd, nn);
            },
        )
    });
    out.push(("sched.dcg_be_decision_us", mean(&t) * 1e6));

    let mut greedy = GreedyBe;
    let t = spans.within("sched.greedy_be", |_| {
        timed(
            |i| &be[i % be.len()],
            |(d, nodes)| {
                black_box(greedy.schedule(black_box(d), nodes));
            },
        )
    });
    out.push(("sched.greedy_be_us", us(&t)));

    let mut dss = DssLc::new(seed);
    let t = spans.within("sched.dss_lc_plan", |_| {
        timed(
            |i| &lc[i % lc.len()],
            |batch| {
                black_box(dss.plan(black_box(batch)));
            },
        )
    });
    out.push(("sched.dss_lc_plan_us", us(&t)));

    let cfg = &shape.cfg;
    let t: Vec<f64> = spans.within("workload.trace_gen", |_| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(Workload::trace(cfg, &shape.catalog, horizon));
                t.elapsed().as_secs_f64()
            })
            .collect()
    });
    out.push(("workload.trace_gen_ms", median(&t) * 1e3));

    let t: Vec<f64> = spans.within("net.topology_gen", |_| {
        (0..7)
            .map(|_| {
                let t = Instant::now();
                black_box(topology_of(cfg));
                t.elapsed().as_secs_f64()
            })
            .collect()
    });
    out.push(("net.topology_gen_ms", median(&t) * 1e3));
    out
}
