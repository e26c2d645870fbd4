//! Router/link fault injection and fault-aware shortest-path routing.
//!
//! The analytical model assumes a fault-free network; this module supplies
//! the machinery for the reliability extension: a [`FaultSet`] names failed
//! routers and physical links, and a [`FaultRouter`] computes deterministic
//! shortest surviving routes around them (reporting unreachable pairs and
//! detour lengths), in the spirit of the probabilistic reliability analyses
//! of faulty k-ary n-cubes and meshes (arXiv:1301.5993, math/0407185).
//!
//! Semantics:
//!
//! * a **failed router** removes the node: no traffic may originate at,
//!   terminate at, or transit through it (all incident channels die);
//! * a **failed link** is a *physical* failure: on bidirectional networks
//!   both directed channels of the link die together;
//! * channels that do not exist in the topology ([`KAryNCube::channel_exists`]
//!   — `Minus` channels of unidirectional networks, wrap-around channels of
//!   meshes) are permanently "failed".
//!
//! The router is a brute-force breadth-first search per destination over
//! the surviving digraph that records every pair's distance and next hop
//! — exact and deterministic (ties broken by lowest [`ChannelId`]), which
//! is what a correctness oracle and a small-network simulator need; it is
//! *not* a scalable fault-tolerant routing algorithm.
//! With an empty fault set its hop sequences coincide with dimension-order
//! routing ([`KAryNCube::dor_route`]): the lowest-channel-id tie-break
//! picks the lowest dimension first and resolves the even-`k` half-ring tie
//! towards `Plus`, exactly the DOR conventions.

use crate::channel::{Channel, ChannelId, Direction};
use crate::geometry::{Boundary, KAryNCube, LinkKind, NodeId};
use crate::routing::{Hop, VcClass};

/// Distance marker for unreachable (or failed) node pairs.
const UNREACHABLE: u16 = u16::MAX;

/// Largest network, in nodes, a [`FaultRouter`] serves: its per-pair
/// tables (a `u16` distance and a `u8` next-hop port per pair, and a `u16`
/// in-tree entry per reachable pair) take up to 5 bytes a pair, 80 MiB
/// here, and would be 5 GiB at `(32, 3)`.
/// The faulty model and the simulator's fault injection reject larger
/// networks before building one.
pub const MAX_FAULT_ROUTER_NODES: u32 = 1 << 12;

/// A set of failed routers and physical links in a topology.
#[derive(Clone, Debug)]
pub struct FaultSet {
    topo: KAryNCube,
    failed_nodes: Vec<bool>,
    failed_channels: Vec<bool>,
    num_failed_routers: u32,
    num_failed_links: u32,
}

impl FaultSet {
    /// The empty fault set: every router and link of `topo` is healthy.
    pub fn none(topo: KAryNCube) -> Self {
        FaultSet {
            topo,
            failed_nodes: vec![false; topo.num_nodes() as usize],
            failed_channels: vec![false; topo.num_channels() as usize],
            num_failed_routers: 0,
            num_failed_links: 0,
        }
    }

    /// The topology the faults live in.
    pub fn topology(&self) -> &KAryNCube {
        &self.topo
    }

    /// Fail the router at `node` (idempotent).  All channels into and out
    /// of the node become unusable via [`FaultSet::channel_failed`].
    pub fn fail_node(&mut self, node: NodeId) {
        if !self.failed_nodes[node.index()] {
            self.failed_nodes[node.index()] = true;
            self.num_failed_routers += 1;
        }
    }

    /// Fail the *physical* link carried by `channel` (idempotent).  On
    /// bidirectional networks the opposite-direction channel of the same
    /// link fails with it.  Failing a channel that does not exist in the
    /// topology is a no-op (it already carries no traffic).
    pub fn fail_link(&mut self, channel: Channel) {
        if !self.topo.channel_exists(channel) {
            return;
        }
        let id = channel.id(&self.topo).index();
        if self.failed_channels[id] {
            return;
        }
        self.failed_channels[id] = true;
        self.num_failed_links += 1;
        if self.topo.link_kind() == LinkKind::Bidirectional {
            let reverse = Channel {
                from: channel.to(&self.topo),
                dim: channel.dim,
                direction: match channel.direction {
                    Direction::Plus => Direction::Minus,
                    Direction::Minus => Direction::Plus,
                },
            };
            self.failed_channels[reverse.id(&self.topo).index()] = true;
        }
    }

    /// Whether the router at `node` has failed.
    #[inline]
    pub fn node_failed(&self, node: NodeId) -> bool {
        self.failed_nodes[node.index()]
    }

    /// Whether `channel` is unusable: it does not exist in the topology,
    /// its physical link failed, or either endpoint router failed.
    pub fn channel_failed(&self, channel: Channel) -> bool {
        if !self.topo.channel_exists(channel) {
            return true;
        }
        self.failed_channels[channel.id(&self.topo).index()]
            || self.failed_nodes[channel.from.index()]
            || self.failed_nodes[channel.to(&self.topo).index()]
    }

    /// Number of failed routers.
    #[inline]
    pub fn num_failed_routers(&self) -> u32 {
        self.num_failed_routers
    }

    /// Number of failed physical links (a bidirectional pair counts once).
    #[inline]
    pub fn num_failed_links(&self) -> u32 {
        self.num_failed_links
    }

    /// True iff no router or link has failed.
    pub fn is_empty(&self) -> bool {
        self.num_failed_routers == 0 && self.num_failed_links == 0
    }

    /// A 64-bit FNV-1a digest of the fault set *and* the topology it lives
    /// in: the geometry parameters followed by the failed-router and
    /// failed-channel bitmaps.
    ///
    /// Two fault sets differing in any failed element — or living in
    /// different topologies — hash to different values (up to the 2⁻⁶⁴
    /// collision probability of the digest), which is what memoisation
    /// keys need: the same *counts* of failures on the same geometry must
    /// not alias when the failed elements differ.  The digest is a pure
    /// function of the set's content, so equal sets always agree.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = fnv1a(FNV_OFFSET, self.topo.k().to_le_bytes());
        hash = fnv1a(hash, self.topo.n().to_le_bytes());
        hash = fnv1a(
            hash,
            [self.topo.link_kind() as u8, self.topo.boundary() as u8],
        );
        hash = fnv1a(hash, self.failed_nodes.iter().map(|&b| b as u8));
        fnv1a(hash, self.failed_channels.iter().map(|&b| b as u8))
    }
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a 64-bit running hash.
fn fnv1a(mut hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Deterministic fault-aware router: exact shortest surviving paths.
///
/// Construction runs one reverse breadth-first search per destination over
/// the surviving digraph and stores two `N × N` tables: the distance
/// (`u16` per pair) and the next-hop port (`u8` per pair, `dim·2 +
/// direction`).  The port is the lowest-[`ChannelId`] surviving
/// out-channel that decreases the distance to the destination — a
/// deterministic minimal route in the surviving graph — recorded while the
/// search runs, so [`FaultRouter::next_hop`] and the in-trees of
/// [`FaultRouter::tree`] read it instead of searching for it.  Each
/// destination's in-tree order (a `u16` node per reachable pair) and the
/// reachability census are taken during the same build.
#[derive(Clone, Debug)]
pub struct FaultRouter {
    topo: KAryNCube,
    faults: FaultSet,
    /// Destination-major distance table: `dist[dest·N + node]`.
    dist: Vec<u16>,
    /// Destination-major next-hop table: `port[dest·N + node]` is the
    /// out-port `dim·2 + direction` of the route's next hop, or
    /// [`NO_PORT`] when `node == dest` or `dest` is unreachable.
    port: Vec<u8>,
    /// Surviving out-links: `links[node·2n + port]` is the channel's id and
    /// its sink.  Entries of dead ports are never read.
    links: Vec<(ChannelId, NodeId)>,
    /// Every destination's in-tree order, destination-major: the nodes
    /// with a surviving route to `dest` (`dest` excluded), nearest first,
    /// ties by node index, from `tree_start[dest]` up to
    /// `tree_start[dest + 1]`.
    tree_nodes: Vec<u16>,
    tree_start: Vec<usize>,
    /// Node coordinates, `coords[node·n + dim]`.
    coords: Vec<u32>,
    /// The largest finite distance in `dist` (0 when nothing survives).
    max_distance: u16,
    /// Ordered pairs `(src, dest)`, `src != dest`, with a surviving route.
    reachable_pairs: u64,
    /// Surviving distance minus fault-free minimal distance, summed over
    /// those pairs.
    detour_hops: u64,
}

/// Next-hop marker for pairs without a hop (`node == dest`, or `dest`
/// unreachable from `node`).
const NO_PORT: u8 = u8::MAX;

/// Placeholder out-link of a port whose channel is dead.
const DEAD_LINK: (ChannelId, NodeId) = (ChannelId(u32::MAX), NodeId(u32::MAX));

/// The out-channel of `node` on `port` (`dim·2 + direction`).
#[inline]
fn port_channel(node: NodeId, port: u8) -> Channel {
    Channel {
        from: node,
        dim: u32::from(port >> 1),
        direction: if port & 1 == 0 {
            Direction::Plus
        } else {
            Direction::Minus
        },
    }
}

/// One edge of a destination's routing in-tree: `node`'s next hop towards
/// the destination crosses `channel` into `next`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeEdge {
    /// A node with a surviving route to the destination.
    pub node: NodeId,
    /// The channel of its next hop.
    pub channel: ChannelId,
    /// That channel's sink: the route's next node (the destination
    /// itself on the last hop).
    pub next: NodeId,
}

impl FaultRouter {
    /// Build the distance and next-hop tables for `faults` (which carries
    /// its topology), record every destination's in-tree order, and take
    /// the reachability census.
    ///
    /// # Panics
    ///
    /// If the topology has more than 2¹⁶ nodes (the in-tree order stores
    /// `u16` node indices); callers fence far smaller networks with
    /// [`MAX_FAULT_ROUTER_NODES`].
    pub fn new(faults: FaultSet) -> Self {
        let topo = *faults.topology();
        let nodes = topo.num_nodes() as usize;
        assert!(nodes <= 1 << 16, "FaultRouter stores u16 node indices");
        let n = topo.n() as usize;
        let ports = 2 * n;
        let coords: Vec<u32> = topo
            .nodes()
            .flat_map(|node| (0..topo.n()).map(move |dim| topo.coord(node, dim)))
            .collect();

        // Surviving links, once: out-links by (node, port) for the hop
        // tables, and each node's in-links (predecessor, port) for the
        // reverse searches — at most one per (dim, direction), so `2n`
        // slots a node.
        let mut links = vec![DEAD_LINK; nodes * ports];
        let mut in_links = vec![(0u32, 0u8); nodes * ports];
        let mut in_count = vec![0usize; nodes];
        for node in topo.nodes() {
            for port in 0..ports as u8 {
                let channel = port_channel(node, port);
                if !faults.channel_failed(channel) {
                    let to = channel.to(&topo);
                    links[node.index() * ports + port as usize] = (channel.id(&topo), to);
                    let count = &mut in_count[to.index()];
                    in_links[to.index() * ports + *count] = (node.0, port);
                    *count += 1;
                }
            }
        }

        // Fault-free minimal hops in one ring by coordinate difference
        // `to - from`, offset by `k - 1`: the census reads it instead of
        // taking a ring distance per pair and dimension.
        let k = topo.k();
        let ring_hops: Vec<u32> = (0..2 * k - 1)
            .map(|i| match i.checked_sub(k - 1) {
                Some(ahead) => topo.ring_offset_routed(0, ahead),
                None => topo.ring_offset_routed(k - 1 - i, 0),
            })
            .map(|offset| offset.unsigned_abs() as u32)
            .collect();

        let mut dist = vec![UNREACHABLE; nodes * nodes];
        let mut port = vec![NO_PORT; nodes * nodes];
        let (mut max_distance, mut reachable_pairs, mut detour_hops) = (0u16, 0u64, 0u64);
        let mut queue: Vec<u32> = Vec::with_capacity(nodes);
        // Reserved for the fault-free worst case; untouched capacity costs
        // no memory.
        let mut tree_nodes: Vec<u16> = Vec::with_capacity(nodes * (nodes - 1));
        let mut tree_start = Vec::with_capacity(nodes + 1);
        // `slot[d]`: the next free in-tree entry of distance `d`.
        let mut slot = Vec::new();
        for dest in topo.nodes() {
            let base = tree_nodes.len();
            tree_start.push(base);
            if faults.node_failed(dest) {
                continue;
            }
            let row = dest.index() * nodes..(dest.index() + 1) * nodes;
            let (dist_row, port_row) = (&mut dist[row.clone()], &mut port[row]);
            dist_row[dest.index()] = 0;
            queue.clear();
            queue.push(dest.0);
            // `dest` is level 0 and is not listed; every later level is
            // fully queued when `head` reaches its first node, and its
            // entries start where its queue positions do, less `dest`.
            slot.clear();
            slot.push(base);
            let (mut head, mut level_end) = (0, 1);
            while let Some(&u) = queue.get(head) {
                if head == level_end {
                    slot.push(base + head - 1);
                    level_end = queue.len();
                }
                head += 1;
                let u = u as usize;
                let d = dist_row[u] + 1;
                for &(v, p) in &in_links[u * ports..u * ports + in_count[u]] {
                    let v = v as usize;
                    // First reached: the hop into `u` decreases the
                    // distance.  Reached again from another node at the
                    // same depth: keep the lower port.
                    if dist_row[v] == UNREACHABLE {
                        dist_row[v] = d;
                        port_row[v] = p;
                        queue.push(v as u32);
                    } else if dist_row[v] == d && p < port_row[v] {
                        port_row[v] = p;
                    }
                }
            }
            // Census over this destination's sources, the destination's
            // coordinates hoisted: the queue holds exactly the nodes that
            // reach it, nearest first.
            let far = *queue.last().expect("dest is queued") as usize;
            max_distance = max_distance.max(dist_row[far]);
            reachable_pairs += queue.len() as u64 - 1;
            let target = &coords[dest.index() * n..(dest.index() + 1) * n];
            for &src in &queue[1..] {
                let src = src as usize;
                let minimal: u32 = coords[src * n..(src + 1) * n]
                    .iter()
                    .zip(target)
                    .map(|(&a, &b)| ring_hops[(b + k - 1 - a) as usize])
                    .sum();
                detour_hops += u64::from(dist_row[src]) - u64::from(minimal);
            }
            // In-tree order: a counting sort of the row by distance, ties
            // by node index, into the level slots the search recorded.
            tree_nodes.resize(base + queue.len() - 1, 0);
            for (node, &p) in port_row.iter().enumerate() {
                if p != NO_PORT {
                    let s = &mut slot[usize::from(dist_row[node])];
                    tree_nodes[*s] = node as u16;
                    *s += 1;
                }
            }
        }
        tree_start.push(tree_nodes.len());
        FaultRouter {
            topo,
            faults,
            dist,
            port,
            links,
            tree_nodes,
            tree_start,
            coords,
            max_distance,
            reachable_pairs,
            detour_hops,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &KAryNCube {
        &self.topo
    }

    /// The fault set the routes avoid.
    pub fn fault_set(&self) -> &FaultSet {
        &self.faults
    }

    #[inline]
    fn dist_raw(&self, node: NodeId, dest: NodeId) -> u16 {
        self.dist[dest.index() * self.topo.num_nodes() as usize + node.index()]
    }

    #[inline]
    fn port_raw(&self, node: NodeId, dest: NodeId) -> u8 {
        self.port[dest.index() * self.topo.num_nodes() as usize + node.index()]
    }

    #[inline]
    fn coord(&self, node: NodeId, dim: u32) -> u32 {
        self.coords[node.index() * self.topo.n() as usize + dim as usize]
    }

    /// Length in hops of the shortest surviving path from `src` to `dest`,
    /// or `None` when no such path exists (including when either endpoint
    /// router has failed).  `Some(0)` iff `src == dest` on a healthy node.
    pub fn distance(&self, src: NodeId, dest: NodeId) -> Option<u32> {
        if self.faults.node_failed(src) {
            return None;
        }
        match self.dist_raw(src, dest) {
            UNREACHABLE => None,
            d => Some(d as u32),
        }
    }

    /// The next hop of the deterministic shortest surviving route at `cur`
    /// heading for `dest`; `None` when `cur == dest` or `dest` is
    /// unreachable from `cur`.  The channel is read from the next-hop
    /// table the build recorded.
    ///
    /// The virtual-channel class is the stateless Dally–Seitz dateline
    /// rule ([`VcClass::for_hop`]) applied to the hop's own ring: it
    /// compares the hop's source coordinate against the *destination's*
    /// coordinate in that dimension.  On fault-free networks this
    /// reproduces dimension-order routes class-for-class (an acyclic
    /// dependency graph, so the route set is wormhole-deadlock-free by
    /// construction — pinned by [`FaultRouter::deadlock_free`]).  Detour
    /// routes keep a deterministic class but may still close a dependency
    /// cycle; check [`FaultRouter::deadlock_free`] before driving a
    /// simulator with a faulted route set.  Mesh routes use only
    /// [`VcClass::High`].
    pub fn next_hop(&self, cur: NodeId, dest: NodeId) -> Option<Hop> {
        match self.port_raw(cur, dest) {
            NO_PORT => None,
            port => {
                let channel = port_channel(cur, port);
                let vc_class = self.hop_class(channel, dest);
                Some(Hop { channel, vc_class })
            }
        }
    }

    /// Stateless Dally–Seitz dateline class for a hop heading to `dest`:
    /// [`VcClass::Low`] while the remaining travel in the hop's ring still
    /// crosses that ring's wrap-around link, [`VcClass::High`] after.
    ///
    /// Detour routes can *sidestep* — move in a dimension whose coordinate
    /// already matches the destination's, which dimension-order routing
    /// never does and [`VcClass::for_hop`] rejects.  A sidestep takes the
    /// Low class iff the hop itself crosses the wrap-around link.
    fn hop_class(&self, channel: Channel, dest: NodeId) -> VcClass {
        if self.topo.boundary() == Boundary::Mesh {
            return VcClass::High;
        }
        let cur = self.coord(channel.from, channel.dim);
        let target = self.coord(dest, channel.dim);
        if cur == target {
            let crosses = match channel.direction {
                Direction::Plus => cur == self.topo.k() - 1,
                Direction::Minus => cur == 0,
            };
            return if crosses { VcClass::Low } else { VcClass::High };
        }
        VcClass::for_hop(cur, target, channel.direction)
    }

    /// The full deterministic route from `src` to `dest` (empty when
    /// `src == dest`), or `None` when `dest` is unreachable from `src`.
    pub fn route(&self, src: NodeId, dest: NodeId) -> Option<Vec<Hop>> {
        self.distance(src, dest)?;
        let mut hops = Vec::new();
        let mut cur = src;
        while cur != dest {
            let hop = self
                .next_hop(cur, dest)
                .expect("finite distance implies a next hop");
            cur = hop.channel.to(&self.topo);
            hops.push(hop);
        }
        Some(hops)
    }

    /// The in-tree the deterministic routes into `dest` form: one
    /// [`TreeEdge`] per node with a surviving route to `dest` (`dest`
    /// excluded), nearest first, ties by node index — so every edge's
    /// `next` is listed before it, or is `dest`.  The order was recorded
    /// by the build; the channels and sinks are table reads.
    pub fn tree(
        &self,
        dest: NodeId,
    ) -> impl DoubleEndedIterator<Item = TreeEdge> + ExactSizeIterator + '_ {
        let ports = 2 * self.topo.n() as usize;
        let nodes = self.topo.num_nodes() as usize;
        let port = &self.port[dest.index() * nodes..(dest.index() + 1) * nodes];
        let order =
            &self.tree_nodes[self.tree_start[dest.index()]..self.tree_start[dest.index() + 1]];
        order.iter().map(move |&node| {
            let node = usize::from(node);
            let (channel, next) = self.links[node * ports + usize::from(port[node])];
            TreeEdge {
                node: NodeId(node as u32),
                channel,
                next,
            }
        })
    }

    /// Number of ordered pairs `(src, dest)` with `src != dest` that can
    /// still communicate (counted during the build).
    pub fn reachable_pairs(&self) -> u64 {
        self.reachable_pairs
    }

    /// Fraction of the `N(N-1)` ordered pairs that can still communicate
    /// (1.0 on a fault-free network).
    pub fn reachable_fraction(&self) -> f64 {
        let n = self.topo.num_nodes() as u64;
        self.reachable_pairs() as f64 / (n * (n - 1)) as f64
    }

    /// Mean detour over the reachable ordered pairs: surviving shortest
    /// distance minus the fault-free minimal distance
    /// ([`KAryNCube::hop_count`]), summed during the build.  0.0 when no
    /// pair is reachable.
    pub fn expected_detour(&self) -> f64 {
        if self.reachable_pairs == 0 {
            0.0
        } else {
            self.detour_hops as f64 / self.reachable_pairs as f64
        }
    }

    /// Whether the route set is wormhole-deadlock-free, by Dally's
    /// criterion: the channel-dependency graph over `(channel, VC class)`
    /// vertices — one edge per consecutive hop pair of any surviving
    /// route — is acyclic.
    ///
    /// Fault-free dimension-order routes satisfy this by construction
    /// (the Dally–Seitz classes break every ring cycle), but detour
    /// routes around faults may turn against dimension order and close a
    /// cycle; a simulator driving such a route set can deadlock under
    /// load.  Sweeps that need clean latency measurements use this
    /// predicate to select provably safe fault samples.
    pub fn deadlock_free(&self) -> bool {
        // Vertex per (channel, class): index = channel · 2 + class.  A
        // vertex feeds only (out-channel, class) pairs of its channel's
        // sink — at most 4n ≤ 32, named by `port · 2 + class` — so its
        // successor set is one bit mask, kept beside the sink.
        let nv = self.topo.num_channels() as usize * 2;
        let ports = 2 * self.topo.n() as usize;
        let mut succ = vec![0u32; nv];
        let mut sink = vec![0u32; nv];
        // Routes are paths in their destination's in-tree: the edges are
        // (hop(cur), hop(next)) over tree nodes not next to `dest`.
        // Per tree node: its hop's vertex and its successor bit.
        let mut hop = vec![(0u32, 0u8); self.topo.num_nodes() as usize];
        for dest in self.topo.nodes() {
            for edge in self.tree(dest) {
                let port = self.port_raw(edge.node, dest);
                let class = self.hop_class(port_channel(edge.node, port), dest) as u8;
                let v = edge.channel.index() * 2 + class as usize;
                hop[edge.node.index()] = (v as u32, port * 2 + class);
                if edge.next != dest {
                    // `next` precedes `edge.node` in the tree: its hop is set.
                    succ[v] |= 1 << hop[edge.next.index()].1;
                    sink[v] = edge.next.0;
                }
            }
        }
        // Kahn's algorithm: the graph is acyclic iff every vertex drains.
        let successors = |u: usize| {
            let (mut mask, base) = (succ[u], sink[u] as usize * ports);
            std::iter::from_fn(move || {
                (mask != 0).then(|| {
                    let bit = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    self.links[base + bit / 2].0.index() * 2 + bit % 2
                })
            })
        };
        let mut indeg = vec![0u32; nv];
        for u in 0..nv {
            for v in successors(u) {
                indeg[v] += 1;
            }
        }
        let mut stack: Vec<usize> = (0..nv).filter(|&v| indeg[v] == 0).collect();
        let mut drained = 0usize;
        while let Some(u) = stack.pop() {
            drained += 1;
            for v in successors(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        drained == nv
    }

    /// The largest finite distance in the table (0 on a fully-failed
    /// network) — an upper bound on surviving route lengths, used to size
    /// per-message hop storage.
    pub fn max_finite_distance(&self) -> u32 {
        u32::from(self.max_distance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_topologies(k: u32, n: u32) -> Vec<KAryNCube> {
        vec![
            KAryNCube::unidirectional(k, n).unwrap(),
            KAryNCube::bidirectional(k, n).unwrap(),
            KAryNCube::mesh(k, n).unwrap(),
        ]
    }

    #[test]
    fn empty_fault_set_reproduces_dimension_order_channels() {
        for t in all_topologies(5, 2).into_iter().chain(all_topologies(4, 2)) {
            let router = FaultRouter::new(FaultSet::none(t));
            for src in t.nodes() {
                for dest in t.nodes() {
                    assert_eq!(router.distance(src, dest), Some(t.hop_count(src, dest)));
                    let dor = t.dor_route(src, dest);
                    let fault_route = router.route(src, dest).unwrap();
                    // Hop-for-hop: channels AND Dally–Seitz classes (the
                    // dateline rule coincides with DOR's on direct routes).
                    assert_eq!(
                        dor.hops,
                        fault_route,
                        "{:?} {:?} {:?}→{:?}",
                        t.link_kind(),
                        t.boundary(),
                        t.coords(src),
                        t.coords(dest)
                    );
                }
            }
            assert_eq!(router.reachable_fraction(), 1.0);
            assert_eq!(router.expected_detour(), 0.0);
            assert_eq!(router.max_finite_distance(), t.max_hops());
        }
    }

    #[test]
    fn mesh_empty_fault_routes_match_dor_exactly_including_classes() {
        let m = KAryNCube::mesh(4, 3).unwrap();
        let router = FaultRouter::new(FaultSet::none(m));
        for src in m.nodes() {
            for dest in m.nodes() {
                assert_eq!(
                    router.route(src, dest).unwrap(),
                    m.dor_route(src, dest).hops
                );
            }
        }
    }

    #[test]
    fn failed_router_is_unreachable_and_not_transited() {
        let t = KAryNCube::bidirectional(4, 2).unwrap();
        let dead = t.node_at(&[1, 1]);
        let mut faults = FaultSet::none(t);
        faults.fail_node(dead);
        faults.fail_node(dead); // idempotent
        assert_eq!(faults.num_failed_routers(), 1);
        let router = FaultRouter::new(faults);
        for other in t.nodes().filter(|&o| o != dead) {
            assert_eq!(router.distance(other, dead), None);
            assert_eq!(router.distance(dead, other), None);
        }
        // Surviving routes never visit the dead node.
        for src in t.nodes().filter(|&s| s != dead) {
            for dest in t.nodes().filter(|&d| d != dead) {
                let route = router.route(src, dest).expect("2-D torus is 2-connected");
                assert!(route.iter().all(|h| h.channel.to(&t) != dead));
            }
        }
        // N-1 healthy nodes all still talk: (N-1)(N-2) ordered pairs.
        assert_eq!(router.reachable_pairs(), 15 * 14);
    }

    #[test]
    fn bidirectional_link_failure_kills_both_directions() {
        let t = KAryNCube::bidirectional(4, 1).unwrap();
        let mut faults = FaultSet::none(t);
        let forward = Channel {
            from: NodeId(1),
            dim: 0,
            direction: Direction::Plus,
        };
        faults.fail_link(forward);
        assert_eq!(faults.num_failed_links(), 1);
        assert!(faults.channel_failed(forward));
        assert!(faults.channel_failed(Channel {
            from: NodeId(2),
            dim: 0,
            direction: Direction::Minus,
        }));
        // The ring minus one link is a path: everyone still reachable, the
        // 1↔2 pairs detour the long way round (3 hops instead of 1).
        let router = FaultRouter::new(faults);
        assert_eq!(router.reachable_fraction(), 1.0);
        assert_eq!(router.distance(NodeId(1), NodeId(2)), Some(3));
        assert_eq!(router.distance(NodeId(2), NodeId(1)), Some(3));
        // Mean detour: 2 of the 12 ordered pairs gained 2 hops each.
        assert!((router.expected_detour() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn unidirectional_link_failure_disconnects_the_ring() {
        // A unidirectional ring has exactly one path between any pair, so a
        // single link failure severs every pair that used it.
        let t = KAryNCube::unidirectional(4, 1).unwrap();
        let mut faults = FaultSet::none(t);
        faults.fail_link(Channel {
            from: NodeId(0),
            dim: 0,
            direction: Direction::Plus,
        });
        let router = FaultRouter::new(faults);
        assert_eq!(router.distance(NodeId(0), NodeId(1)), None);
        assert_eq!(router.distance(NodeId(3), NodeId(1)), None);
        assert_eq!(router.distance(NodeId(1), NodeId(0)), Some(3));
        // Pairs not crossing 0→1 survive: (1,2),(1,3),(1,0),(2,3),(2,0),(3,0).
        assert_eq!(router.reachable_pairs(), 6);
    }

    #[test]
    fn failing_nonexistent_channels_is_a_noop() {
        let m = KAryNCube::mesh(3, 2).unwrap();
        let mut faults = FaultSet::none(m);
        // Wrap-around channel of a mesh: does not exist.
        faults.fail_link(Channel {
            from: m.node_at(&[2, 0]),
            dim: 0,
            direction: Direction::Plus,
        });
        assert_eq!(faults.num_failed_links(), 0);
        assert!(faults.is_empty());
        let u = KAryNCube::unidirectional(3, 1).unwrap();
        let mut faults = FaultSet::none(u);
        faults.fail_link(Channel {
            from: NodeId(0),
            dim: 0,
            direction: Direction::Minus,
        });
        assert_eq!(faults.num_failed_links(), 0);
    }

    #[test]
    fn detour_routes_are_minimal_in_the_surviving_graph() {
        // Mesh corner cut off except one path: routes must still be BFS
        // shortest.  Fail the two links next to corner (0,0)'s neighbors so
        // reaching it requires a specific detour.
        let m = KAryNCube::mesh(3, 2).unwrap();
        let mut faults = FaultSet::none(m);
        faults.fail_link(Channel {
            from: m.node_at(&[0, 0]),
            dim: 0,
            direction: Direction::Plus,
        });
        let router = FaultRouter::new(faults);
        // (0,0) → (1,0) must now go up, right, down: 3 hops.
        assert_eq!(
            router.distance(m.node_at(&[0, 0]), m.node_at(&[1, 0])),
            Some(3)
        );
        let route = router
            .route(m.node_at(&[0, 0]), m.node_at(&[1, 0]))
            .unwrap();
        assert_eq!(route.len(), 3);
        assert!(route
            .iter()
            .all(|h| !router.fault_set().channel_failed(h.channel)));
        assert!(route.iter().all(|h| h.vc_class == VcClass::High));
    }

    #[test]
    fn next_hop_walk_matches_route_and_terminates() {
        let t = KAryNCube::bidirectional(5, 2).unwrap();
        let mut faults = FaultSet::none(t);
        faults.fail_node(NodeId(7));
        faults.fail_link(Channel {
            from: NodeId(3),
            dim: 1,
            direction: Direction::Plus,
        });
        let router = FaultRouter::new(faults);
        for src in t.nodes() {
            for dest in t.nodes() {
                match router.route(src, dest) {
                    None => assert_eq!(router.next_hop(src, dest), None),
                    Some(route) => {
                        let mut cur = src;
                        for hop in &route {
                            assert_eq!(router.next_hop(cur, dest).as_ref(), Some(hop));
                            cur = hop.channel.to(&t);
                        }
                        assert_eq!(router.next_hop(cur, dest), None);
                        assert_eq!(route.len() as u32, router.distance(src, dest).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn fingerprint_separates_distinct_sets_and_topologies() {
        let t = KAryNCube::bidirectional(4, 2).unwrap();
        let empty = FaultSet::none(t);
        // Same content hashes equal.
        assert_eq!(empty.fingerprint(), FaultSet::none(t).fingerprint());
        // Same failure *count*, different failed element: must not alias.
        let mut a = FaultSet::none(t);
        a.fail_node(NodeId(1));
        let mut b = FaultSet::none(t);
        b.fail_node(NodeId(2));
        assert_eq!(a.num_failed_routers(), b.num_failed_routers());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), empty.fingerprint());
        // A link failure is not a router failure.
        let mut c = FaultSet::none(t);
        c.fail_link(Channel {
            from: NodeId(1),
            dim: 0,
            direction: Direction::Plus,
        });
        assert_ne!(c.fingerprint(), a.fingerprint());
        // The topology is part of the digest: the same (empty) set on a
        // different geometry or link kind hashes differently.
        for other in [
            KAryNCube::unidirectional(4, 2).unwrap(),
            KAryNCube::mesh(4, 2).unwrap(),
            KAryNCube::bidirectional(2, 4).unwrap(),
        ] {
            assert_ne!(FaultSet::none(other).fingerprint(), empty.fingerprint());
        }
    }

    #[test]
    fn fingerprint_is_insertion_order_independent() {
        let t = KAryNCube::mesh(4, 2).unwrap();
        let mut ab = FaultSet::none(t);
        ab.fail_node(NodeId(3));
        ab.fail_node(NodeId(9));
        let mut ba = FaultSet::none(t);
        ba.fail_node(NodeId(9));
        ba.fail_node(NodeId(3));
        assert_eq!(ab.fingerprint(), ba.fingerprint());
    }

    #[test]
    fn fault_free_route_sets_are_deadlock_free() {
        // Dimension-order routes with Dally–Seitz wrap classes have an
        // acyclic channel-dependency graph on every geometry.
        for t in all_topologies(5, 2)
            .into_iter()
            .chain(all_topologies(4, 3))
            .chain(all_topologies(2, 4))
        {
            let router = FaultRouter::new(FaultSet::none(t));
            assert!(router.deadlock_free(), "{t:?}");
        }
    }

    #[test]
    fn a_detour_that_turns_against_dimension_order_closes_a_cycle() {
        // On a bidirectional torus, killing a dim-0 link forces detours
        // through dim 1 and back into dim 0 — the classic turn pattern
        // that closes a channel-dependency cycle under the wrap-crossing
        // class rule.  The predicate must catch at least one such set
        // (this is the mechanism behind the simulator deadlocks the
        // faulty-model sweep works around).
        let t = KAryNCube::bidirectional(8, 2).unwrap();
        let mut any_cyclic = false;
        for node in 0..16u32 {
            let mut faults = FaultSet::none(t);
            faults.fail_node(NodeId(node));
            faults.fail_link(Channel {
                from: NodeId(node + 17),
                dim: 0,
                direction: Direction::Plus,
            });
            let router = FaultRouter::new(faults);
            if router.reachable_pairs() > 0 && !router.deadlock_free() {
                any_cyclic = true;
                break;
            }
        }
        assert!(
            any_cyclic,
            "no cyclic dependency found across the probe fault sets"
        );
    }

    #[test]
    fn node_failures_keep_mesh_routes_deadlock_free_when_detours_stay_minimal() {
        // A single failed corner router on a mesh leaves every surviving
        // route dimension-ordered (no wrap links exist to close ring
        // cycles through), so the dependency graph stays acyclic.
        let t = KAryNCube::mesh(5, 2).unwrap();
        let mut faults = FaultSet::none(t);
        faults.fail_node(NodeId(0));
        let router = FaultRouter::new(faults);
        assert!(router.reachable_pairs() > 0);
        assert!(router.deadlock_free());
    }
}
