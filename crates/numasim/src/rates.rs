//! The shared cost model: traffic shaping, congestion and chunk durations.
//!
//! The machine prices every running chunk the same way:
//!
//! 1. when the chunk starts, its row of the loop's [`ChunkPricing`] is
//!    fixed: its DRAM traffic split over the nodes (fraction, latency
//!    factor, crossed socket-pair link) from the task's
//!    [`Locality`](crate::Locality), its uncontended bandwidth demand per
//!    node, its row-buffer stream weight, its compute and memory times on
//!    the executing core, and the set of field entries its traffic reads;
//! 2. at every event, all concurrently running chunks' desired bandwidths
//!    are aggregated into a [`CongestionField`] (per-controller demand,
//!    per-socket-pair link demand, per-controller streaming-flow count);
//! 3. each chunk's memory time is inflated by the field's congestion
//!    factors along its traffic rows.
//!
//! Steps 2 and 3 run per event, each only where its inputs moved. Step 2
//! works on dense rows with one column per node: a worker that is not
//! running has a zero row, a running chunk has zeros off its traffic, and
//! adding `+0.0` to a sum of non-negative terms that starts at `+0.0` leaves
//! it bitwise unchanged. So a node's demand and streams are column sums over
//! the workers — or over just the workers whose chunk reads that node —
//! taken in lane-then-worker order, bitwise the sums a chunk-by-chunk,
//! row-by-row pass would build. Only the sums of entries some row moved in
//! (a chunk started, ended or was rescaled) are recomputed; the others,
//! and their factors, are bitwise what a recompute would give. Link rows
//! stay scalar adds in row order, and step 3 sums a chunk's traffic rows
//! in node order.
//! [`finalize`](CongestionField::finalize) reports which factors changed
//! bitwise; a chunk none of whose entries changed keeps its rate, which
//! re-pricing would reproduce exactly. Every lane of the machine is priced
//! against the one field, so there is one interference channel — a chunk
//! slows down identically whether its competitor belongs to the same
//! taskloop or to another tenant's.

use crate::params::MachineParams;
use crate::task::{Locality, TaskSpec};
use ilan_topology::{NodeId, NodeMask, Topology};

/// Accumulator width of the column sums: every `flows` row is padded to a
/// multiple of it, so each block of columns sums in registers.
const BLOCK: usize = 16;

/// The change-mask bit of field entry `entry` out of `entries`: node `k` is
/// entry `k`, socket-pair link `l` is entry `num_nodes + l`. A field with
/// more entries than a mask has bits sets every bit for every entry, so
/// every chunk sees every change.
fn entry_bit(entry: usize, entries: usize) -> u64 {
    if entries <= 64 {
        1 << entry
    } else {
        u64::MAX
    }
}

/// Index of the socket-pair link between sockets `a` and `b` in the
/// field's `sockets × sockets` tables (`min × sockets + max`).
fn link_index(a: usize, b: usize, sockets: usize) -> usize {
    a.min(b) * sockets + a.max(b)
}

/// Everything the cost model needs about a loop's running chunks that stays
/// fixed while they run, one row per worker: per-node bandwidth demand, the
/// stream weight, the traffic and link rows, the uncontended compute and
/// memory times on the executing core, and the field entries the traffic
/// reads. Only the congestion a chunk meets is re-priced, and only when one
/// of those entries changes. A worker that is not running has zero rows.
pub(crate) struct ChunkPricing {
    nodes: usize,
    /// Entries of the congestion field (nodes, then socket-pair links).
    entries: usize,
    sockets: usize,
    /// The socket of each node.
    node_socket: Vec<usize>,
    /// Latency factor (`distance / 10`) from each node to each node.
    latency: Vec<f64>,
    /// Columns per `flows` row.
    stride: usize,
    /// Per worker: `desired_bw × frac` (bytes/ns) per node, then the
    /// stream weight in the column `num_nodes + home`, zero-padded to
    /// `stride`.
    flows: Vec<f64>,
    /// Per worker, up to `num_nodes` traffic rows in node order, of which
    /// `traffic_len` are live: the row's entry in
    /// [`CongestionField::seen`] and its `frac × lat`, the weight of that
    /// congestion in the chunk's latency penalty.
    traffic: Vec<(usize, f64)>,
    traffic_len: Vec<usize>,
    /// Per worker, up to `num_nodes` traffic rows that cross a socket-pair
    /// link, in row order, of which `link_len` are live: the link and the
    /// row's `desired_bw × frac`.
    links: Vec<(usize, f64)>,
    link_len: Vec<usize>,
    /// The socket each worker executes on.
    socket: Vec<usize>,
    /// Compute time at the executing core's frequency, ns.
    compute_ns: Vec<f64>,
    /// Memory time at the single-core bandwidth before congestion, ns.
    mem_ns: Vec<f64>,
    /// Change-mask bits of the field entries each running chunk's traffic
    /// reads (see [`CongestionField::finalize`]).
    reads: Vec<u64>,
    /// The inverse of `reads`, as worker bitsets: word `bit × blocks + b`
    /// holds the workers `64b..64b+64` whose chunk reads mask bit `bit`.
    readers: Vec<u64>,
    /// Mask bits of the entries whose sums some row filled, cleared or
    /// rescaled since [`take_moved`](Self::take_moved) last ran.
    moved: u64,
    /// 64-worker blocks.
    blocks: usize,
}

impl ChunkPricing {
    /// Zero rows for workers executing on `exec_nodes`.
    pub(crate) fn new(topo: &Topology, exec_nodes: impl ExactSizeIterator<Item = usize>) -> Self {
        let workers = exec_nodes.len();
        let nodes = topo.num_nodes();
        let sockets = topo.num_sockets();
        let stride = (2 * nodes).next_multiple_of(BLOCK);
        let node_socket: Vec<usize> = (0..nodes)
            .map(|k| topo.socket_of_node(NodeId::new(k)).index())
            .collect();
        let d = topo.distances();
        ChunkPricing {
            nodes,
            entries: nodes + sockets * sockets,
            sockets,
            latency: (0..nodes * nodes)
                .map(|i| d.latency_factor(NodeId::new(i / nodes), NodeId::new(i % nodes)))
                .collect(),
            stride,
            flows: vec![0.0; workers * stride],
            traffic: vec![(0, 0.0); workers * nodes],
            traffic_len: vec![0; workers],
            links: vec![(0, 0.0); workers * nodes],
            link_len: vec![0; workers],
            socket: exec_nodes.map(|n| node_socket[n]).collect(),
            node_socket,
            compute_ns: vec![0.0; workers],
            mem_ns: vec![0.0; workers],
            reads: vec![0; workers],
            readers: vec![0; 64 * workers.div_ceil(64)],
            moved: 0,
            blocks: workers.div_ceil(64),
        }
    }

    /// Fills worker `w`'s rows, which must be clear, for `spec` executing
    /// on `exec_node` at frequency factor `freq`. The latency factor damps
    /// the topology distance by the access pattern's latency sensitivity
    /// (prefetchers hide part of the latency for streaming access).
    pub(crate) fn fill(
        &mut self,
        w: usize,
        params: &MachineParams,
        spec: &TaskSpec,
        exec_node: usize,
        freq: f64,
    ) {
        let exec = NodeId::new(exec_node);
        let bytes = spec.effective_bytes(exec);
        let ideal = spec.ideal_ns(params.core_bw);
        let desired_bw = if ideal > 0.0 { bytes / ideal } else { 0.0 };
        let sens = spec.locality.latency_sensitivity();
        let s_from = self.socket[w];
        let nodes = self.nodes;
        debug_assert_eq!(self.reads[w], 0, "worker {w}'s rows are in use");
        let flows = &mut self.flows[w * self.stride..(w + 1) * self.stride];
        let traffic = &mut self.traffic[w * nodes..(w + 1) * nodes];
        // Only the home and, for scattered access, the data nodes draw
        // traffic; every other node's fraction is zero.
        let targets = match spec.locality {
            Locality::Chunked => NodeMask::single(spec.home_node),
            Locality::Scattered { .. } => spec.data_mask.with(spec.home_node),
        };
        for k in targets.iter().map(NodeId::index).take_while(|&k| k < nodes) {
            let frac =
                spec.locality
                    .traffic_fraction(spec.home_node, spec.data_mask, NodeId::new(k));
            if frac <= 0.0 {
                continue;
            }
            let lat = 1.0 + sens * (self.latency[exec_node * nodes + k] - 1.0);
            let bw = desired_bw * frac;
            debug_assert!(
                bw >= 0.0 && bw.is_sign_positive(),
                "demand contribution {bw} must be >= +0.0"
            );
            flows[k] = bw;
            traffic[self.traffic_len[w]] = (s_from * nodes + k, frac * lat);
            self.traffic_len[w] += 1;
            self.reads[w] |= entry_bit(k, self.entries);
            let s_to = self.node_socket[k];
            if s_from != s_to {
                let link = link_index(s_from, s_to, self.sockets);
                self.links[w * nodes + self.link_len[w]] = (link, bw);
                self.link_len[w] += 1;
                self.reads[w] |= entry_bit(nodes + link, self.entries);
            }
        }
        let stream_weight = match spec.locality {
            Locality::Chunked => 1.0,
            Locality::Scattered { spread } => 1.0 - spread,
        };
        debug_assert!(
            stream_weight >= 0.0 && stream_weight.is_sign_positive(),
            "stream weight {stream_weight} must be >= +0.0"
        );
        flows[nodes + spec.home_node.index()] = stream_weight;
        self.compute_ns[w] = spec.compute_ns / freq;
        self.mem_ns[w] = bytes / params.core_bw;
        self.set_readers(w, true);
        self.moved |= self.reads[w];
    }

    /// Worker `w`'s core share changed: its rows' contributions moved.
    pub(crate) fn rescaled(&mut self, w: usize) {
        self.moved |= self.reads[w];
    }

    /// The entries whose sums moved since the last call (see `moved`).
    pub(crate) fn take_moved(&mut self) -> u64 {
        std::mem::take(&mut self.moved)
    }

    /// Enters (or removes) worker `w` in the reader sets of its entries.
    fn set_readers(&mut self, w: usize, on: bool) {
        let (block, bit) = (w / 64, 1u64 << (w % 64));
        let mut reads = self.reads[w];
        while reads != 0 {
            let word = &mut self.readers[reads.trailing_zeros() as usize * self.blocks + block];
            if on {
                *word |= bit;
            } else {
                *word &= !bit;
            }
            reads &= reads - 1;
        }
    }

    /// The workers `64 × block..` whose chunk may have rows across `link`:
    /// its readers, or every worker when the field has more entries than a
    /// mask has bits.
    fn link_readers(&self, link: usize, block: usize) -> u64 {
        if self.entries <= 64 {
            self.readers[(self.nodes + link) * self.blocks + block]
        } else {
            u64::MAX >> (64 * (block + 1)).saturating_sub(self.link_len.len())
        }
    }

    /// The workers `64 × block..` whose chunk reads an entry whose bit is
    /// set in `changed`, as a bitset.
    pub(crate) fn readers_of(&self, changed: u64, block: usize) -> u64 {
        let mut due = 0;
        let mut bits = changed;
        while bits != 0 {
            due |= self.readers[bits.trailing_zeros() as usize * self.blocks + block];
            bits &= bits - 1;
        }
        due
    }

    /// Zeroes worker `w`'s rows: its chunk no longer loads the field.
    pub(crate) fn clear(&mut self, w: usize) {
        self.moved |= self.reads[w];
        self.set_readers(w, false);
        for block in self.flows[w * self.stride..(w + 1) * self.stride].chunks_exact_mut(BLOCK) {
            block.copy_from_slice(&[0.0; BLOCK]);
        }
        self.traffic_len[w] = 0;
        self.link_len[w] = 0;
        self.reads[w] = 0;
    }

    /// Worker `w`'s chunk's wall duration under the given congestion
    /// penalty: compute plus memory streamed at the single-core bandwidth,
    /// inflated by the penalty (which never accelerates, hence the clamp
    /// at 1).
    #[inline]
    pub(crate) fn duration(&self, w: usize, penalty: f64) -> f64 {
        self.compute_ns[w] + self.mem_ns[w] * penalty.max(1.0)
    }
}

/// Which sums an update of the field recomputes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Columns {
    /// No node's demand or streams moved.
    None,
    /// These nodes' (a mask), summed over their readers only.
    Sparse(u64),
    /// Every node's, as dense column sums.
    Dense,
}

/// At most this many moved nodes are re-summed over their readers; more
/// are re-summed as dense columns. Measured on the benchmark's `sim-paper`
/// (where 68% of events move one node and 31% all eight): re-summing
/// every moved node densely made its wall time 12% longer, and over the
/// readers however many moved, 24% longer (EXPERIMENTS.md, "Simulator
/// engine cost per event").
const SPARSE_COLUMNS: u32 = 2;

/// Aggregated bandwidth demand and the congestion factors derived from it.
///
/// Usage per event: [`begin`](Self::begin) with the entries whose sums
/// moved, [`add`](Self::add) once per loop sharing the machine (in lane
/// order), then [`finalize`](Self::finalize). Afterwards
/// [`penalty`](Self::penalty) prices any running chunk's traffic against
/// the field.
///
/// Only the sums that moved are recomputed, from zero and in lane-then-
/// worker order, so each is bitwise the sum a full pass would build; the
/// rest, and their factors, keep their values. A moved node's sums are
/// taken over its readers only (the workers whose chunk reads it) when few
/// nodes moved: every other worker's entry there is `+0.0`.
pub(crate) struct CongestionField {
    nodes: usize,
    sockets: usize,
    /// The socket of each node.
    node_socket: Vec<usize>,
    /// Column sums of the loops' `flows` rows: per-node DRAM demand
    /// (bytes/ns), then per-node streaming-flow weight (row-buffer
    /// interference), then padding.
    flows: Vec<f64>,
    /// Per socket-pair link demand (row-major `s × s`, only `i<j` entries
    /// used).
    link_demand: Vec<f64>,
    /// Per-node congestion factor (valid after `finalize`).
    node_cong: Vec<f64>,
    /// Per socket-pair link congestion factor (valid after `finalize`).
    link_cong: Vec<f64>,
    /// Per executing socket and node: the congestion a traffic row pays,
    /// the worse of the node's and, across sockets, the link's (valid
    /// after `finalize`).
    seen: Vec<f64>,
    /// Mask bits of the entries this update recomputes.
    dirty: u64,
    columns: Columns,
}

impl CongestionField {
    pub(crate) fn new(topo: &Topology) -> Self {
        let nodes = topo.num_nodes();
        let sockets = topo.num_sockets();
        CongestionField {
            nodes,
            sockets,
            node_socket: (0..nodes)
                .map(|k| topo.socket_of_node(NodeId::new(k)).index())
                .collect(),
            flows: vec![0.0; (2 * nodes).next_multiple_of(BLOCK)],
            link_demand: vec![0.0; sockets * sockets],
            node_cong: vec![1.0; nodes],
            link_cong: vec![1.0; sockets * sockets],
            seen: vec![1.0; sockets * nodes],
            dirty: 0,
            columns: Columns::None,
        }
    }

    /// Starts an update in which the entries whose bits are set in `moved`
    /// (the union of the loops' [`ChunkPricing::take_moved`]) are summed
    /// afresh.
    pub(crate) fn begin(&mut self, moved: u64) {
        let nodes = self.nodes;
        let entries = nodes + self.link_cong.len();
        self.dirty = moved;
        let moved_nodes = moved & (u64::MAX >> (64 - nodes.min(64)));
        self.columns = if moved_nodes == 0 {
            Columns::None
        } else if entries <= 64 && moved_nodes.count_ones() <= SPARSE_COLUMNS {
            Columns::Sparse(moved_nodes)
        } else {
            Columns::Dense
        };
        match self.columns {
            Columns::None => {}
            Columns::Sparse(mut cols) => {
                while cols != 0 {
                    let k = cols.trailing_zeros() as usize;
                    cols &= cols - 1;
                    self.flows[k] = 0.0;
                    self.flows[nodes + k] = 0.0;
                }
            }
            Columns::Dense => {
                for block in self.flows.chunks_exact_mut(BLOCK) {
                    block.copy_from_slice(&[0.0; BLOCK]);
                }
            }
        }
        for (l, d) in self.link_demand.iter_mut().enumerate() {
            if moved & entry_bit(nodes + l, entries) != 0 {
                *d = 0.0;
            }
        }
    }

    /// Adds one loop's running chunks. `shares[w]` is worker `w`'s share of
    /// its core (timeshared execution under oversubscription issues
    /// proportionally less traffic; a chunk alone on its core has share
    /// 1.0, and `x × 1.0 == x`). The flows are summed column by column over
    /// the workers and the link rows link by link, each sum's accumulator
    /// kept in a register.
    pub(crate) fn add(&mut self, pricing: &ChunkPricing, shares: &[f64]) {
        let stride = pricing.stride;
        debug_assert_eq!(stride, self.flows.len());
        let nodes = self.nodes;
        match self.columns {
            Columns::None => {}
            Columns::Sparse(mut cols) => {
                while cols != 0 {
                    let k = cols.trailing_zeros() as usize;
                    cols &= cols - 1;
                    let (mut demand, mut streams) = (self.flows[k], self.flows[nodes + k]);
                    for block in 0..pricing.blocks {
                        let mut readers = pricing.readers[k * pricing.blocks + block];
                        while readers != 0 {
                            let w = 64 * block + readers.trailing_zeros() as usize;
                            readers &= readers - 1;
                            let row = &pricing.flows[w * stride..];
                            demand += row[k] * shares[w];
                            streams += row[nodes + k] * shares[w];
                        }
                    }
                    self.flows[k] = demand;
                    self.flows[nodes + k] = streams;
                }
            }
            Columns::Dense => self.add_columns(pricing, shares),
        }
        // Each moved link's rows, in worker order and, within a worker, in
        // row order.
        let entries = nodes + self.link_cong.len();
        for (l, sum) in self.link_demand.iter_mut().enumerate() {
            if self.dirty & entry_bit(nodes + l, entries) == 0 {
                continue;
            }
            let mut acc = *sum;
            for block in 0..pricing.blocks {
                let mut readers = pricing.link_readers(l, block);
                while readers != 0 {
                    let w = 64 * block + readers.trailing_zeros() as usize;
                    readers &= readers - 1;
                    for &(link, bw) in &pricing.links[w * nodes..][..pricing.link_len[w]] {
                        if link == l {
                            acc += bw * shares[w];
                        }
                    }
                }
            }
            *sum = acc;
        }
    }

    /// Every column, summed over every worker's row.
    fn add_columns(&mut self, pricing: &ChunkPricing, shares: &[f64]) {
        let stride = pricing.stride;
        for b in (0..stride).step_by(BLOCK) {
            let sums = &mut self.flows[b..b + BLOCK];
            let mut acc: [f64; BLOCK] = (&*sums).try_into().expect("one block");
            for (w, row) in pricing.flows.chunks_exact(stride).enumerate() {
                let row: &[f64; BLOCK] = row[b..b + BLOCK].try_into().expect("one block");
                let share = shares[w];
                for k in 0..BLOCK {
                    acc[k] += row[k] * share;
                }
            }
            sums.copy_from_slice(&acc);
        }
    }

    /// Converts the recomputed demand into congestion factors and returns
    /// the change mask: the bits (see [`ChunkPricing::reads`]) of the
    /// entries whose factor differs bitwise from the previous call's.
    pub(crate) fn finalize(&mut self, params: &MachineParams) -> u64 {
        let beta = params.overload_beta;
        let cong = |demand: f64, bw: f64| -> f64 {
            let util = demand / bw;
            if util <= 1.0 {
                1.0
            } else {
                util * (1.0 + beta * (util - 1.0))
            }
        };
        let kappa = params.stream_kappa;
        let base = params.stream_base;
        let nodes = self.nodes;
        let entries = nodes + self.link_cong.len();
        let mut changed = 0;
        let dirty = self.dirty;
        for k in 0..nodes {
            let bit = entry_bit(k, entries);
            if dirty & bit == 0 {
                continue;
            }
            let stream_factor = 1.0 + kappa * (self.flows[nodes + k] - base).max(0.0);
            let factor = cong(self.flows[k], params.node_bw) * stream_factor;
            if self.node_cong[k].to_bits() != factor.to_bits() {
                changed |= bit;
            }
            self.node_cong[k] = factor;
        }
        for (l, (out, &d)) in self.link_cong.iter_mut().zip(&self.link_demand).enumerate() {
            let bit = entry_bit(nodes + l, entries);
            if dirty & bit == 0 {
                continue;
            }
            let factor = cong(d, params.link_bw);
            if out.to_bits() != factor.to_bits() {
                changed |= bit;
            }
            *out = factor;
        }
        // A moved link touches every cross-socket row; a moved node only
        // its own column.
        let all = entries > 64 || changed >> nodes != 0;
        if changed != 0 {
            for (s, seen) in self.seen.chunks_exact_mut(nodes).enumerate() {
                for (k, c) in seen.iter_mut().enumerate() {
                    if !all && changed & 1 << k == 0 {
                        continue;
                    }
                    let to = self.node_socket[k];
                    *c = self.node_cong[k];
                    if to != s {
                        *c = c.max(self.link_cong[link_index(s, to, self.sockets)]);
                    }
                }
            }
        }
        changed
    }

    /// Whether `self` and `other` hold bitwise the same demand sums.
    pub(crate) fn same_sums(&self, other: &CongestionField) -> bool {
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        same(&self.flows, &other.flows) && same(&self.link_demand, &other.link_demand)
    }

    /// The congestion-weighted latency penalty of worker `w`'s running
    /// chunk. Cross-socket rows pay the worse of the target controller's
    /// and the link's congestion.
    #[inline]
    pub(crate) fn penalty(&self, pricing: &ChunkPricing, w: usize) -> f64 {
        let rows = &pricing.traffic[w * self.nodes..][..pricing.traffic_len[w]];
        let mut penalty = 0.0;
        for &(seen, weight) in rows {
            penalty += weight * self.seen[seen];
        }
        penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::splitmix64;
    use ilan_topology::presets;

    /// A chunk priced row by row, as a chunk-by-chunk model does: its
    /// traffic rows `(node, frac, lat, link)`, desired bandwidth, home and
    /// stream weight.
    struct RowChunk {
        rows: Vec<(usize, f64, f64, Option<usize>)>,
        desired_bw: f64,
        home: usize,
        stream_weight: f64,
    }

    fn row_chunk(
        topo: &Topology,
        params: &MachineParams,
        spec: &TaskSpec,
        exec: usize,
    ) -> RowChunk {
        let ns = topo.num_sockets();
        let from = topo.socket_of_node(NodeId::new(exec)).index();
        let sens = spec.locality.latency_sensitivity();
        let mut rows = Vec::new();
        for k in 0..topo.num_nodes() {
            let frac =
                spec.locality
                    .traffic_fraction(spec.home_node, spec.data_mask, NodeId::new(k));
            if frac > 0.0 {
                let lf = topo
                    .distances()
                    .latency_factor(NodeId::new(exec), NodeId::new(k));
                let to = topo.socket_of_node(NodeId::new(k)).index();
                let link = (from != to).then(|| from.min(to) * ns + from.max(to));
                rows.push((k, frac, 1.0 + sens * (lf - 1.0), link));
            }
        }
        let bytes = spec.effective_bytes(NodeId::new(exec));
        let ideal = spec.ideal_ns(params.core_bw);
        RowChunk {
            rows,
            desired_bw: if ideal > 0.0 { bytes / ideal } else { 0.0 },
            home: spec.home_node.index(),
            stream_weight: match spec.locality {
                Locality::Chunked => 1.0,
                Locality::Scattered { spread } => 1.0 - spread,
            },
        }
    }

    fn random_spec(st: &mut u64, nodes: usize) -> TaskSpec {
        let mut unit = || (splitmix64(st) >> 11) as f64 / (1u64 << 53) as f64;
        let home = NodeId::new((unit() * nodes as f64) as usize);
        let bits = (unit() * (1u64 << nodes) as f64) as u64;
        let mask = bits | 1 << home.index();
        TaskSpec {
            compute_ns: 1_000.0 + 50_000.0 * unit(),
            mem_bytes: 2_000_000.0 * unit(),
            home_node: home,
            locality: if unit() < 0.5 {
                Locality::Chunked
            } else {
                Locality::Scattered { spread: unit() }
            },
            data_mask: NodeMask::from_bits(mask),
            cache_reuse: unit(),
            fits_l3: unit() < 0.5,
        }
    }

    /// The field kept up to date across events (dense or reader-only
    /// column sums of the moved nodes, link rows by link) and its penalties
    /// equal, bit for bit, the sums a chunk-by-chunk, row-by-row pass builds
    /// from scratch over the same running chunks in lane-then-worker order.
    #[test]
    fn kept_field_matches_row_by_row_sums_bitwise() {
        let mut st = 0x5EED;
        // The last has more field entries (8 nodes + 64 links) than a mask
        // has bits.
        let topos = [
            presets::epyc_9354_2s(),
            presets::tiny_2x4(),
            presets::xeon_8280_2s(),
            Topology::builder()
                .sockets(8)
                .nodes_per_socket(1)
                .cores_per_node(2)
                .build()
                .expect("valid topology"),
        ];
        for (t, topo) in topos.iter().enumerate() {
            let params = MachineParams::for_topology(topo);
            let nodes = topo.num_nodes();
            let sockets = topo.num_sockets();
            let scaled = t % 2 == 0;
            let mut field = CongestionField::new(topo);
            // Two lanes of up to 70 workers (more than one bitset block).
            let mut lanes: Vec<_> = (0..2)
                .map(|_| {
                    let n = 1 + (splitmix64(&mut st) % 70) as usize;
                    let exec: Vec<usize> = (0..n)
                        .map(|_| (splitmix64(&mut st) % nodes as u64) as usize)
                        .collect();
                    let pricing = ChunkPricing::new(topo, exec.iter().copied());
                    let chunks: Vec<Option<RowChunk>> = (0..n).map(|_| None).collect();
                    (exec, pricing, chunks, vec![1.0; n])
                })
                .collect();
            for trial in 0..200 {
                // A few chunks start or end, and a few shares move.
                for (exec, pricing, chunks, shares) in &mut lanes {
                    for _ in 0..1 + splitmix64(&mut st) % 3 {
                        let w = (splitmix64(&mut st) % exec.len() as u64) as usize;
                        if chunks[w].take().is_some() {
                            pricing.clear(w);
                        } else {
                            let spec = random_spec(&mut st, nodes);
                            pricing.fill(w, &params, &spec, exec[w], 0.9);
                            chunks[w] = Some(row_chunk(topo, &params, &spec, exec[w]));
                        }
                    }
                    if scaled && splitmix64(&mut st).is_multiple_of(3) {
                        let w = (splitmix64(&mut st) % exec.len() as u64) as usize;
                        shares[w] = 1.0 / (1 + splitmix64(&mut st) % 3) as f64;
                        pricing.rescaled(w);
                    }
                }
                let moved = lanes
                    .iter_mut()
                    .fold(0, |m, (_, pricing, _, _)| m | pricing.take_moved());
                field.begin(moved);
                for (_, pricing, _, shares) in &lanes {
                    field.add(pricing, shares);
                }
                field.finalize(&params);

                let mut demand = vec![0.0; nodes];
                let mut streams = vec![0.0; nodes];
                let mut link_demand = vec![0.0; sockets * sockets];
                for (_, _, chunks, shares) in &lanes {
                    for (w, c) in chunks.iter().enumerate() {
                        let Some(c) = c else { continue };
                        let scale = if scaled { shares[w] } else { 1.0 };
                        streams[c.home] += c.stream_weight * scale;
                        for &(node, frac, _, link) in &c.rows {
                            let bw = c.desired_bw * frac * scale;
                            demand[node] += bw;
                            if let Some(link) = link {
                                link_demand[link] += bw;
                            }
                        }
                    }
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&field.flows[..nodes]),
                    bits(&demand),
                    "demand, trial {trial}"
                );
                assert_eq!(
                    bits(&field.flows[nodes..2 * nodes]),
                    bits(&streams),
                    "streams, trial {trial}"
                );
                assert_eq!(bits(&field.link_demand), bits(&link_demand), "links");
                for (_, pricing, chunks, _) in &lanes {
                    for (w, c) in chunks.iter().enumerate() {
                        let Some(c) = c else { continue };
                        let mut penalty = 0.0;
                        for &(node, frac, lat, link) in &c.rows {
                            let mut cong = field.node_cong[node];
                            if let Some(link) = link {
                                cong = cong.max(field.link_cong[link]);
                            }
                            penalty += frac * lat * cong;
                        }
                        assert_eq!(field.penalty(pricing, w).to_bits(), penalty.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn finalize_reports_exactly_the_factors_that_moved() {
        let topo = presets::epyc_9354_2s();
        let params = MachineParams::for_topology(&topo);
        let mut field = CongestionField::new(&topo);
        field.begin(u64::MAX);
        assert_eq!(field.finalize(&params), 0, "an idle field stays at 1.0");
        // Overload node 2 and the socket link; leave the rest idle.
        field.begin(u64::MAX);
        field.flows[2] = 10.0 * params.node_bw;
        field.link_demand[link_index(0, 1, 2)] = 10.0 * params.link_bw;
        let link_bit = 1 << (8 + link_index(0, 1, 2));
        assert_eq!(field.finalize(&params), 1 << 2 | link_bit);
        // The same demand again: nothing moved.
        field.begin(u64::MAX);
        field.flows[2] = 10.0 * params.node_bw;
        field.link_demand[link_index(0, 1, 2)] = 10.0 * params.link_bw;
        assert_eq!(field.finalize(&params), 0);
        // A chunk reading only node 5 is not due; one reading node 2 is.
        let mut pricing = ChunkPricing::new(&topo, [5, 2].into_iter());
        let local = |home: usize| TaskSpec {
            compute_ns: 1_000.0,
            mem_bytes: 1_000.0,
            home_node: NodeId::new(home),
            locality: Locality::Chunked,
            data_mask: NodeMask::single(NodeId::new(home)),
            cache_reuse: 0.0,
            fits_l3: false,
        };
        pricing.fill(0, &params, &local(5), 5, 1.0);
        pricing.fill(1, &params, &local(2), 2, 1.0);
        assert_eq!(pricing.readers_of(1 << 2 | link_bit, 0), 0b10);
        assert_eq!(pricing.readers_of(1 << 5, 0), 0b01);
        pricing.clear(1);
        assert_eq!(pricing.readers_of(1 << 2, 0), 0);
    }

    #[test]
    fn oversized_fields_mark_every_entry_with_every_bit() {
        assert_eq!(entry_bit(3, 64), 1 << 3);
        assert_eq!(entry_bit(3, 65), u64::MAX);
        let topo = Topology::builder()
            .sockets(8)
            .nodes_per_socket(1)
            .cores_per_node(1)
            .build()
            .expect("valid topology");
        let params = MachineParams::for_topology(&topo);
        let mut field = CongestionField::new(&topo);
        field.begin(1);
        field.flows[0] = 10.0 * params.node_bw;
        assert_eq!(
            field.finalize(&params),
            u64::MAX,
            "8 nodes + 64 links > 64 bits"
        );
    }
}
