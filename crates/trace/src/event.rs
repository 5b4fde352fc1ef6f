//! The event vocabulary shared by the native runtime and the simulator.

/// Pseudo-worker id for events emitted by the dispatching thread (the thread
/// that encounters the taskloop and enqueues its chunks) rather than by a
/// pool worker.
pub const DISPATCHER: u32 = u32::MAX;

/// Which fault a [`FaultInjected`](EventKind::FaultInjected) event records.
/// Mirrors the fault families of the `ilan-faults` plan without depending on
/// that crate — the trace vocabulary stays dependency-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTag {
    /// A worker was stalled (delayed or permanently parked) before it could
    /// participate in the invocation.
    WorkerStall,
    /// A node's chunk executions run under a slowdown multiplier.
    SlowNode,
    /// A targeted wakeup post was deliberately not delivered.
    DroppedWakeup,
    /// A remote steal sweep was refused by the injected policy.
    StealRefusal,
}

impl FaultTag {
    /// Stable lowercase label for exporters and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            FaultTag::WorkerStall => "worker-stall",
            FaultTag::SlowNode => "slow-node",
            FaultTag::DroppedWakeup => "dropped-wakeup",
            FaultTag::StealRefusal => "steal-refusal",
        }
    }
}

/// What happened. Acquisition events encode the *locality outcome* of taking
/// a chunk, not the queue it physically came through: any acquisition (or
/// batch transfer, in the simulator) that moves a chunk across NUMA nodes is
/// an [`InterNodeSteal`](EventKind::InterNodeSteal), so the number of
/// inter-node-steal events in a log equals the run's reported `migrations`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The dispatcher placed chunk `chunk` on the queue of node `home`.
    /// `strict` marks NUMA-strict chunks, which must never leave `home`.
    ChunkEnqueue {
        /// Chunk index within the invocation.
        chunk: u32,
        /// Node the chunk was assigned to.
        home: u32,
        /// Whether the chunk is NUMA-strict.
        strict: bool,
    },
    /// A worker took a chunk that lives on its own node from its node's
    /// work (the native pool: its node's cursor).
    LocalPop {
        /// Chunk index.
        chunk: u32,
    },
    /// A worker took a same-node chunk from a same-node peer's deque. Only
    /// the simulator emits it; the native pool's workers share their node's
    /// cursor, so a same-node claim there is a [`LocalPop`](Self::LocalPop).
    IntraNodeSteal {
        /// Chunk index.
        chunk: u32,
        /// Worker id of the deque's owner.
        victim: u32,
    },
    /// A chunk crossed NUMA nodes: acquired (native) or batch-transferred
    /// (simulator) by a worker on a node other than the one it sat on.
    InterNodeSteal {
        /// Chunk index.
        chunk: u32,
        /// Node the chunk migrated away from.
        from: u32,
    },
    /// A worker began executing chunk `chunk`'s body.
    ChunkStart {
        /// Chunk index.
        chunk: u32,
    },
    /// A worker finished executing chunk `chunk`'s body.
    ChunkEnd {
        /// Chunk index.
        chunk: u32,
    },
    /// A worker left the taskloop and released the exit barrier. Exactly one
    /// per active worker per invocation.
    LatchRelease,
    /// A scheduling policy chose a configuration for a taskloop site
    /// (Algorithm 1's exploration / settled decision).
    ExplorationDecision {
        /// The taskloop site the decision is for.
        site: u64,
        /// Thread count of the decision (0 = not a hierarchical decision).
        threads: u32,
    },
    /// The chaos layer injected a fault into this invocation. Emitted on the
    /// dispatcher's ring at dispatch time (stalls, dropped wakeups, slow
    /// nodes) or by the affected worker (steal refusals).
    FaultInjected {
        /// Which fault family fired.
        fault: FaultTag,
        /// The worker (stall, wakeup, refusal) or node (slow-node) the
        /// fault targets.
        target: u32,
    },
    /// The dispatcher's watchdog escalated a stalled invocation. Stage 1
    /// re-broadcasts wakeups to every active worker; stage 2 claims `count`
    /// never-started workers and drains their chunks on the dispatcher so
    /// the taskloop still completes (degraded but correct).
    Degraded {
        /// Escalation stage (1 = broadcast re-post, 2 = claim-and-drain).
        stage: u32,
        /// Workers affected (stage 2: slots the dispatcher claimed).
        count: u32,
    },
}

impl EventKind {
    /// The chunk index this event refers to, if any.
    pub fn chunk(&self) -> Option<u32> {
        match *self {
            EventKind::ChunkEnqueue { chunk, .. }
            | EventKind::LocalPop { chunk }
            | EventKind::IntraNodeSteal { chunk, .. }
            | EventKind::InterNodeSteal { chunk, .. }
            | EventKind::ChunkStart { chunk }
            | EventKind::ChunkEnd { chunk } => Some(chunk),
            EventKind::LatchRelease
            | EventKind::ExplorationDecision { .. }
            | EventKind::FaultInjected { .. }
            | EventKind::Degraded { .. } => None,
        }
    }

    /// Whether this is an acquisition event (local pop or either steal).
    pub fn is_acquisition(&self) -> bool {
        matches!(
            self,
            EventKind::LocalPop { .. }
                | EventKind::IntraNodeSteal { .. }
                | EventKind::InterNodeSteal { .. }
        )
    }
}

/// One scheduler event, stamped with its emitting worker's sequence number.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Per-worker sequence number, starting at 0; strictly increasing within
    /// one worker's stream of one invocation.
    pub seq: u64,
    /// Emitting worker id (== core index), or [`DISPATCHER`].
    pub worker: u32,
    /// NUMA node of the emitting worker; for enqueue events, the chunk's
    /// assigned home node.
    pub node: u32,
    /// Event time in nanoseconds from the invocation's dispatch.
    pub time_ns: u64,
    /// What happened.
    pub kind: EventKind,
}
