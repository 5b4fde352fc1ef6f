//! Hardware topology model for the ILAN NUMA scheduler.
//!
//! This crate plays the role that [hwloc](https://www.open-mpi.org/projects/hwloc/)
//! plays in the original ILAN implementation: it describes the machine as a
//! hierarchy of **sockets → NUMA nodes → CCDs (last-level-cache groups) → cores**,
//! exposes the inter-node *distance matrix* (as `numactl --hardware` would), and
//! provides the small set-algebra types ([`NodeMask`], [`CpuSet`]) that scheduling
//! policies manipulate. Its [`placement`] module holds the taskloop placement
//! description ([`ExecMode`]) and the rules that resolve it into cores and
//! per-node chunk ranges; the native runtime and the simulator both execute
//! from it.
//!
//! The scheduler never talks to the operating system directly; everything it needs
//! to know about the platform is captured by a [`Topology`] value. Topologies come
//! from three places:
//!
//! 1. **Presets** ([`presets`]): faithful models of real machines, most importantly
//!    [`presets::epyc_9354_2s`] — the dual-socket-equivalent 64-core AMD EPYC 9354
//!    ("Zen 4") node used in the paper's evaluation (8 NUMA nodes × 8 cores,
//!    4 nodes per socket, 4-core CCDs sharing a 32 MB L3).
//! 2. **The builder** ([`TopologyBuilder`]): arbitrary synthetic machines for tests
//!    and what-if studies.
//! 3. **Detection** ([`detect`]): best-effort discovery from Linux `/sys`, falling
//!    back to a flat SMP model of the visible CPUs.
//!
//! # Example
//!
//! ```
//! use ilan_topology::{presets, NodeId};
//!
//! let topo = presets::epyc_9354_2s();
//! assert_eq!(topo.num_cores(), 64);
//! assert_eq!(topo.num_nodes(), 8);
//! assert_eq!(topo.num_sockets(), 2);
//! // Nodes 0 and 1 share a socket; nodes 0 and 4 do not.
//! assert!(topo.same_socket(NodeId::new(0), NodeId::new(1)));
//! assert!(!topo.same_socket(NodeId::new(0), NodeId::new(4)));
//! ```

#![warn(missing_docs)]

pub mod detect;
pub mod distance;
pub mod ids;
pub mod mask;
pub mod placement;
pub mod presets;
pub mod render;
pub mod spec;
mod topo;

pub use distance::DistanceMatrix;
pub use ids::{CcdId, CoreId, NodeId, SocketId};
pub use mask::{CpuSet, NodeMask};
pub use placement::{active_cores, strict_count, ChunkAssignment, ExecMode, StealPolicy};
pub use render::render_tree;
pub use spec::parse_spec;
pub use topo::{CacheSpec, Topology, TopologyBuilder, TopologyError};
