//! Route-walk oracle for the faulty-network model.
//!
//! The model reads every surviving route through per-destination in-trees
//! ([`FaultRouter::tree`]): channel loads by subtree accumulation, network
//! latencies by one nearest-first pass per destination.  This suite keeps
//! the straightforward formulation as a test-only reference — every
//! ordered reachable pair's route walked hop by hop through
//! [`FaultRouter::route`], loads accumulated per pair, latencies composed
//! source by source with each source's Eq. (28) wait applied per pair —
//! and checks that the two agree over uni-torus / bi-torus / mesh
//! geometries, fault densities from 0% to 30%, two hot-node positions and
//! loads up to 0.95·λ*.
//!
//! The two formulations add the same terms in different orders, so they
//! agree to rounding, not bitwise: per-channel rates within 1e-12
//! relative, composed latencies and source waits within 1e-11.

use kncube_core::{FaultyNCubeConfig, FaultyNCubeModel, FaultyNCubeOutput, MultiplexingModel};
use kncube_queueing::blocking::{channel_metrics, TrafficClass};
use kncube_queueing::mg1;
use kncube_queueing::vc_multiplex::multiplexing_factor;
use kncube_topology::{Channel, ChannelId, Direction, FaultRouter, FaultSet, KAryNCube, NodeId};

/// The solver's utilization cap for the blocking operator.
const RHO_CAP: f64 = 1.0 - 1e-7;
const RATE_TOL: f64 = 1e-12;
const LATENCY_TOL: f64 = 1e-11;
const LOADS: [f64; 5] = [0.0, 0.2, 0.5, 0.8, 0.95];

/// Per-channel unit loads `(regular, hot)`, one route walk per pair.
fn walked_rates(router: &FaultRouter, hot: NodeId, h: f64) -> (Vec<f64>, Vec<f64>) {
    let topo = *router.topology();
    let others = (topo.num_nodes() - 1) as f64;
    let mut regular = vec![0.0; topo.num_channels() as usize];
    let mut hot_load = vec![0.0; topo.num_channels() as usize];
    for src in topo.nodes() {
        let share = if src == hot { 1.0 } else { 1.0 - h };
        for dest in topo.nodes().filter(|&d| d != src) {
            for hop in router.route(src, dest).unwrap_or_default() {
                let id = hop.channel.id(&topo).index();
                regular[id] += share / others;
                if dest == hot {
                    hot_load[id] += h;
                }
            }
        }
    }
    (regular, hot_load)
}

/// `[latency, regular_latency, hot_latency, source_wait_regular]` by
/// source-major per-pair composition over walked routes, or `None` when
/// the network saturates at `lambda`.
fn walked_solve(
    model: &FaultyNCubeModel,
    rates: &(Vec<f64>, Vec<f64>),
    lambda: f64,
) -> Option<[f64; 4]> {
    let cfg = model.config();
    let topo = *cfg.topology();
    let router = model.router();
    let lm = cfg.message_length as f64;
    let v = cfg.virtual_channels;
    let (h, hot) = (cfg.hot_fraction, cfg.hot_node);
    let others = (topo.num_nodes() - 1) as f64;
    let mut blocking = vec![0.0; rates.0.len()];
    let mut vbar = vec![1.0; rates.0.len()];
    for id in 0..rates.0.len() {
        let regular = TrafficClass::new(lambda * rates.0[id], lm + 1.0);
        let hot_class = TrafficClass::new(lambda * rates.1[id], lm + 1.0);
        let metrics = channel_metrics(regular, hot_class, lm, RHO_CAP);
        if metrics.utilization >= 1.0 {
            return None;
        }
        blocking[id] = metrics.delay;
        vbar[id] = match cfg.multiplexing {
            MultiplexingModel::DallyMarkov => multiplexing_factor(metrics.utilization, v),
            MultiplexingModel::ClassAware => {
                1.0 + metrics.utilization.clamp(0.0, (v - 1).max(1) as f64)
            }
        };
    }
    let (mut reg_num, mut reg_den, mut hot_num, mut hot_den) = (0.0, 0.0, 0.0, 0.0);
    let (mut wait_sum, mut healthy) = (0.0, 0.0);
    for src in topo.nodes().filter(|&s| !cfg.faults.node_failed(s)) {
        healthy += 1.0;
        let pair_weight = if src == hot { 1.0 } else { 1.0 - h } / others;
        // (network latency, entry-channel v̄, is-hot-destination) per pair.
        let mut pairs = Vec::new();
        let (mut service_num, mut delivered) = (0.0, 0.0);
        for dest in topo.nodes().filter(|&d| d != src) {
            let Some(route) = router.route(src, dest) else {
                continue;
            };
            let ids: Vec<usize> = route
                .iter()
                .map(|hop| hop.channel.id(&topo).index())
                .collect();
            let s_net = ids.iter().fold(lm, |s, &id| s + 1.0 + blocking[id]);
            let is_hot = dest == hot;
            let weight = pair_weight + if is_hot { h } else { 0.0 };
            service_num += weight * s_net;
            delivered += weight;
            pairs.push((s_net, vbar[ids[0]], is_hot));
        }
        let wait = if delivered > 0.0 {
            mg1::waiting_time(lambda * delivered / v as f64, service_num / delivered, lm).ok()?
        } else {
            0.0
        };
        wait_sum += wait;
        for (s_net, entry_vbar, is_hot) in pairs {
            let scaled = (s_net + wait) * entry_vbar;
            reg_num += pair_weight * scaled;
            reg_den += pair_weight;
            if is_hot {
                hot_num += h * scaled;
                hot_den += h;
            }
        }
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    Some([
        ratio(reg_num + hot_num, reg_den + hot_den),
        ratio(reg_num, reg_den),
        ratio(hot_num, hot_den),
        ratio(wait_sum, healthy),
    ])
}

/// splitmix64 — the test's own deterministic fault sampler.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Fail each router and each physical `Plus` link with probability `p`.
fn sample_faults(topo: KAryNCube, p: f64, seed: u64) -> FaultSet {
    let mut faults = FaultSet::none(topo);
    let mut state = seed;
    let mut roll = || (splitmix64(&mut state) >> 11) as f64 / ((1u64 << 53) as f64) < p;
    for node in topo.nodes() {
        if roll() {
            faults.fail_node(node);
        }
        for dim in 0..topo.n() {
            if roll() {
                faults.fail_link(Channel {
                    from: node,
                    dim,
                    direction: Direction::Plus,
                });
            }
        }
    }
    faults
}

fn rel_err(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Check every fault density, hot node and load on one geometry; returns
/// the worst relative rate and latency errors seen.
fn check_geometry(topo: KAryNCube) -> (f64, f64) {
    let (mut worst_rate, mut worst_latency) = (0.0f64, 0.0f64);
    for (i, density) in [0.0, 0.02, 0.05, 0.10, 0.30].into_iter().enumerate() {
        let faults = sample_faults(topo, density, 0x5EED + i as u64);
        for hot in [NodeId(0), NodeId(topo.num_nodes() / 3)] {
            let ctx = format!(
                "{:?}/{:?} k={} n={} p={density} hot={}",
                topo.link_kind(),
                topo.boundary(),
                topo.k(),
                topo.n(),
                hot.0
            );
            let config = FaultyNCubeConfig::new(faults.clone(), 2, 16, 0.0, 0.3).with_hot_node(hot);
            let model = FaultyNCubeModel::new(config).unwrap();
            let rates = walked_rates(model.router(), hot, 0.3);
            let got = model.channel_rates();
            for id in 0..topo.num_channels() {
                let i = id as usize;
                for (a, b) in [
                    (got.regular_rate(ChannelId(id), 1.0), rates.0[i]),
                    (got.hot_rate(ChannelId(id), 1.0), rates.1[i]),
                ] {
                    let err = rel_err(a, b);
                    assert!(err <= RATE_TOL, "{ctx}: channel {id}: {a} vs walked {b}");
                    worst_rate = worst_rate.max(err);
                }
            }
            let lambda_star = model
                .saturation(1e-9, 1e-1, 1e-3)
                .map_or(0.0, |s| s.lambda_star);
            for frac in LOADS {
                let lambda = frac * lambda_star;
                let got = model.solve_general_at(lambda).ok();
                let want = walked_solve(&model, &rates, lambda);
                let (Some(got), Some(want)) = (&got, want) else {
                    assert_eq!(
                        got.is_some(),
                        want.is_some(),
                        "{ctx} {frac}·λ*: solvability"
                    );
                    continue;
                };
                let FaultyNCubeOutput {
                    latency,
                    regular_latency,
                    hot_latency,
                    source_wait_regular,
                    ..
                } = *got;
                let fields = [latency, regular_latency, hot_latency, source_wait_regular];
                for (name, (a, b)) in ["latency", "regular", "hot", "source wait"]
                    .iter()
                    .zip(fields.into_iter().zip(want))
                {
                    let err = rel_err(a, b);
                    assert!(
                        err <= LATENCY_TOL,
                        "{ctx} {frac}·λ*: {name} {a} vs walked {b}"
                    );
                    worst_latency = worst_latency.max(err);
                }
            }
        }
    }
    (worst_rate, worst_latency)
}

fn check_kind(build: fn(u32, u32) -> KAryNCube) {
    for (k, n) in [(4, 2), (5, 2), (8, 2), (3, 3), (4, 3)] {
        let (rate, latency) = check_geometry(build(k, n));
        println!("k={k} n={n}: worst rate {rate:.2e}, worst latency {latency:.2e}");
    }
}

#[test]
fn tree_passes_match_route_walks_on_unidirectional_tori() {
    check_kind(|k, n| KAryNCube::unidirectional(k, n).unwrap());
}

#[test]
fn tree_passes_match_route_walks_on_bidirectional_tori() {
    check_kind(|k, n| KAryNCube::bidirectional(k, n).unwrap());
}

#[test]
fn tree_passes_match_route_walks_on_meshes() {
    check_kind(|k, n| KAryNCube::mesh(k, n).unwrap());
}
