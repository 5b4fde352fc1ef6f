//! The shared cost model: traffic shaping, congestion and chunk durations.
//!
//! The machine prices every running chunk the same way:
//!
//! 1. when the chunk starts, its [`ChunkPricing`] is fixed: its DRAM
//!    traffic split into per-node rows (fraction, latency factor, crossed
//!    socket-pair link) from the task's [`Locality`](crate::Locality), its
//!    uncontended bandwidth demand, and its compute and memory times on the
//!    executing core;
//! 2. at every event, all concurrently running chunks' desired bandwidths
//!    are aggregated into a [`CongestionField`] (per-controller demand,
//!    per-socket-pair link demand, per-controller streaming-flow count);
//! 3. each chunk's memory time is inflated by the field's congestion
//!    factors along its traffic rows.
//!
//! Only steps 2 and 3 run per event. Every lane of the machine is priced
//! against the one field, so there is one interference channel — a chunk
//! slows down identically whether its competitor belongs to the same
//! taskloop or to another tenant's.

use crate::params::MachineParams;
use crate::task::TaskSpec;
use ilan_topology::{NodeId, Topology};

/// One row of a chunk's DRAM traffic: the share of its bytes served by
/// `node`, damped latency factor, and the socket-pair link the traffic
/// crosses.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TrafficRow {
    pub(crate) node: usize,
    pub(crate) frac: f64,
    pub(crate) lat: f64,
    /// Index into the field's socket-pair tables (`a × sockets + b`,
    /// `a < b`), or `None` when `node` is on the executing socket.
    pub(crate) link: Option<usize>,
}

/// Everything the cost model needs about a running chunk that stays fixed
/// while it runs: its traffic rows, its uncontended bandwidth demand, its
/// row-buffer stream weight, and its uncontended compute and memory times
/// on the executing core. Only the congestion it meets is re-priced per
/// event.
#[derive(Clone, Debug, Default)]
pub(crate) struct ChunkPricing {
    pub(crate) traffic: Vec<TrafficRow>,
    /// Desired DRAM bandwidth if uncontended, bytes/ns.
    pub(crate) desired_bw: f64,
    /// Node whose controller sees the chunk's streaming flow.
    pub(crate) home: usize,
    /// Streaming-flow weight (1 for chunked access, less when scattered).
    pub(crate) stream_weight: f64,
    /// Compute time at the executing core's frequency, ns.
    pub(crate) compute_ns: f64,
    /// Memory time at the single-core bandwidth before congestion, ns.
    pub(crate) mem_ns: f64,
}

impl ChunkPricing {
    /// Re-fills `self` (reusing its row buffer) for `spec` executing on
    /// `exec_node` at frequency factor `freq`. The latency factor damps the
    /// topology distance by the access pattern's latency sensitivity
    /// (prefetchers hide part of the latency for streaming access).
    pub(crate) fn fill(
        &mut self,
        topo: &Topology,
        params: &MachineParams,
        spec: &TaskSpec,
        exec_node: usize,
        freq: f64,
    ) {
        let exec = NodeId::new(exec_node);
        let sens = spec.locality.latency_sensitivity();
        let ns = topo.num_sockets();
        let s_from = topo.socket_of_node(exec).index();
        self.traffic.clear();
        for k in 0..topo.num_nodes() {
            let frac =
                spec.locality
                    .traffic_fraction(spec.home_node, spec.data_mask, NodeId::new(k));
            if frac > 0.0 {
                let lat =
                    1.0 + sens * (topo.distances().latency_factor(exec, NodeId::new(k)) - 1.0);
                let s_to = topo.socket_of_node(NodeId::new(k)).index();
                let link = (s_from != s_to).then(|| s_from.min(s_to) * ns + s_from.max(s_to));
                self.traffic.push(TrafficRow {
                    node: k,
                    frac,
                    lat,
                    link,
                });
            }
        }
        let bytes = spec.effective_bytes(exec);
        let ideal = spec.ideal_ns(params.core_bw);
        self.desired_bw = if ideal > 0.0 { bytes / ideal } else { 0.0 };
        self.home = spec.home_node.index();
        self.stream_weight = match spec.locality {
            crate::task::Locality::Chunked => 1.0,
            crate::task::Locality::Scattered { spread } => 1.0 - spread,
        };
        self.compute_ns = spec.compute_ns / freq;
        self.mem_ns = bytes / params.core_bw;
    }

    /// The chunk's wall duration under the given congestion penalty:
    /// compute plus memory streamed at the single-core bandwidth, inflated
    /// by the penalty (which never accelerates, hence the clamp at 1).
    pub(crate) fn duration(&self, penalty: f64) -> f64 {
        self.compute_ns + self.mem_ns * penalty.max(1.0)
    }
}

/// Aggregated bandwidth demand and the congestion factors derived from it.
///
/// Usage per event: [`clear`](Self::clear), one [`add_flow`](Self::add_flow)
/// per running chunk (across *all* loops sharing the machine), then
/// [`finalize`](Self::finalize); afterwards [`penalty`](Self::penalty) prices
/// any chunk's traffic against the field.
pub(crate) struct CongestionField {
    /// Per-node DRAM demand, bytes/ns.
    demand: Vec<f64>,
    /// Per socket-pair link demand (row-major `s × s`, only `i<j` entries
    /// used).
    link_demand: Vec<f64>,
    /// Per-node streaming-flow weight (row-buffer interference).
    streams: Vec<f64>,
    /// Per-node congestion factor (valid after `finalize`).
    node_cong: Vec<f64>,
    /// Per socket-pair link congestion factor (valid after `finalize`).
    link_cong: Vec<f64>,
}

impl CongestionField {
    pub(crate) fn new(num_nodes: usize, num_sockets: usize) -> Self {
        CongestionField {
            demand: vec![0.0; num_nodes],
            link_demand: vec![0.0; num_sockets * num_sockets],
            streams: vec![0.0; num_nodes],
            node_cong: vec![1.0; num_nodes],
            link_cong: vec![1.0; num_sockets * num_sockets],
        }
    }

    pub(crate) fn clear(&mut self) {
        self.demand.iter_mut().for_each(|d| *d = 0.0);
        self.link_demand.iter_mut().for_each(|d| *d = 0.0);
        self.streams.iter_mut().for_each(|d| *d = 0.0);
    }

    /// Adds one running chunk's demand. `scale` discounts a chunk that holds
    /// only part of a core (timeshared execution under oversubscription
    /// issues proportionally less traffic); a chunk alone on its core
    /// passes 1.0.
    pub(crate) fn add_flow(&mut self, chunk: &ChunkPricing, scale: f64) {
        self.streams[chunk.home] += chunk.stream_weight * scale;
        for row in &chunk.traffic {
            let bw = chunk.desired_bw * row.frac * scale;
            self.demand[row.node] += bw;
            if let Some(link) = row.link {
                self.link_demand[link] += bw;
            }
        }
    }

    /// Converts accumulated demand into congestion factors.
    pub(crate) fn finalize(&mut self, params: &MachineParams) {
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
        for (out, (&d, &st)) in self
            .node_cong
            .iter_mut()
            .zip(self.demand.iter().zip(&self.streams))
        {
            let stream_factor = 1.0 + kappa * (st - base).max(0.0);
            *out = cong(d, params.node_bw) * stream_factor;
        }
        for (out, &d) in self.link_cong.iter_mut().zip(&self.link_demand) {
            *out = cong(d, params.link_bw);
        }
    }

    /// The congestion-weighted latency penalty of a chunk's traffic.
    /// Cross-socket rows pay the worse of the target controller's and the
    /// link's congestion.
    pub(crate) fn penalty(&self, traffic: &[TrafficRow]) -> f64 {
        let mut penalty = 0.0;
        for row in traffic {
            let mut c = self.node_cong[row.node];
            if let Some(link) = row.link {
                c = c.max(self.link_cong[link]);
            }
            penalty += row.frac * row.lat * c;
        }
        penalty
    }
}
