//! The merged, time-ordered event log of one invocation, with exporters.

use crate::event::{Event, EventKind, DISPATCHER};
use std::fmt::Write as _;

/// A merged event stream, ordered by `(time_ns, worker, seq)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventLog {
    events: Vec<Event>,
    /// Worker count of the emitting pool (informational).
    pub num_workers: usize,
    /// NUMA node count of the emitting machine.
    pub num_nodes: usize,
    /// Events lost to ring overflow across all workers.
    pub dropped: usize,
}

impl EventLog {
    /// Builds a log from raw events, sorting them into canonical order.
    pub fn from_events(
        mut events: Vec<Event>,
        num_workers: usize,
        num_nodes: usize,
        dropped: usize,
    ) -> Self {
        events.sort_by_key(|e| (e.time_ns, e.worker, e.seq));
        EventLog {
            events,
            num_workers,
            num_nodes,
            dropped,
        }
    }

    /// The events in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Total event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends another log (e.g. a later invocation of the same tenant),
    /// re-sorting into canonical order. Sequence numbers restart per
    /// invocation, so merged logs are for export — audit invocations
    /// individually.
    pub fn merge(&mut self, other: &EventLog) {
        self.events.extend(other.events.iter().copied());
        self.events.sort_by_key(|e| (e.time_ns, e.worker, e.seq));
        self.num_workers = self.num_workers.max(other.num_workers);
        self.num_nodes = self.num_nodes.max(other.num_nodes);
        self.dropped += other.dropped;
    }

    /// Appends a single pre-stamped event (the caller maintains `seq`).
    pub fn push_event(&mut self, event: Event) {
        let idx = self.events.partition_point(|e| {
            (e.time_ns, e.worker, e.seq) <= (event.time_ns, event.worker, event.seq)
        });
        self.events.insert(idx, event);
    }

    /// Number of inter-node-steal events (== migrations, by construction).
    pub fn inter_node_steals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::InterNodeSteal { .. }))
            .count()
    }

    /// Number of intra-node (peer-deque) steal events (simulator only).
    pub fn intra_node_steals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::IntraNodeSteal { .. }))
            .count()
    }

    /// Number of local-pop acquisition events.
    pub fn local_pops(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LocalPop { .. }))
            .count()
    }

    /// The chunk→node assignment recorded at enqueue time:
    /// `(chunk, home, strict)` sorted by chunk index.
    pub fn chunk_assignment(&self) -> Vec<(u32, u32, bool)> {
        let mut v: Vec<(u32, u32, bool)> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ChunkEnqueue {
                    chunk,
                    home,
                    strict,
                } => Some((chunk, home, strict)),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// The node each chunk *executed* on: `(chunk, node)` from start events,
    /// sorted by chunk index.
    pub fn exec_nodes(&self) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ChunkStart { chunk } => Some((chunk, e.node)),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// The per-node steal matrix: `matrix[from][to]` counts chunks that
    /// migrated from node `from` to node `to` (one increment per
    /// inter-node-steal event). Events referencing nodes outside
    /// `num_nodes` are ignored.
    pub fn steal_matrix(&self) -> Vec<Vec<u64>> {
        let n = self.num_nodes;
        let mut m = vec![vec![0u64; n]; n];
        for e in &self.events {
            if let EventKind::InterNodeSteal { from, .. } = e.kind {
                let (f, t) = (from as usize, e.node as usize);
                if f < n && t < n {
                    m[f][t] += 1;
                }
            }
        }
        m
    }

    /// Renders the steal matrix as a text table (`from \ to`).
    pub fn render_steal_matrix(&self) -> String {
        let m = self.steal_matrix();
        let mut out = String::from("steal matrix (rows: from node, cols: to node)\n");
        let _ = write!(out, "{:>8}", r"from\to");
        for to in 0..self.num_nodes {
            let _ = write!(out, "{to:>8}");
        }
        out.push('\n');
        for (from, row) in m.iter().enumerate() {
            let _ = write!(out, "{from:>8}");
            for &count in row {
                let _ = write!(out, "{count:>8}");
            }
            out.push('\n');
        }
        out
    }

    /// Exports the log as `chrome://tracing` JSON (the Trace Event Format):
    /// chunk executions become complete (`"X"`) events, everything else
    /// instant (`"i"`) events; `pid` is the NUMA node, `tid` the worker.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };

        // Metadata: name processes after nodes and threads after workers.
        for node in 0..self.num_nodes {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":0,\
                 \"args\":{{\"name\":\"node {node}\"}}}}"
            );
        }

        // Pair starts with ends per (worker, chunk) for "X" events.
        let mut open: Vec<(u32, u32, u64)> = Vec::new(); // (worker, chunk, start)
        for e in &self.events {
            let tid = tid_of(e.worker);
            let ts = us(e.time_ns);
            match e.kind {
                EventKind::ChunkStart { chunk } => {
                    open.push((e.worker, chunk, e.time_ns));
                }
                EventKind::ChunkEnd { chunk } => {
                    let found = open
                        .iter()
                        .rposition(|&(w, c, _)| w == e.worker && c == chunk);
                    if let Some(i) = found {
                        let (_, _, start) = open.swap_remove(i);
                        sep(&mut out);
                        let _ = write!(
                            out,
                            "{{\"name\":\"chunk {chunk}\",\"cat\":\"exec\",\"ph\":\"X\",\
                             \"pid\":{},\"tid\":{tid},\"ts\":{},\"dur\":{},\
                             \"args\":{{\"chunk\":{chunk}}}}}",
                            e.node,
                            us(start),
                            us(e.time_ns.saturating_sub(start)),
                        );
                    }
                }
                EventKind::ChunkEnqueue {
                    chunk,
                    home,
                    strict,
                } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"enqueue\",\"cat\":\"dispatch\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{home},\"tid\":{tid},\"ts\":{ts},\
                         \"args\":{{\"chunk\":{chunk},\"home\":{home},\"strict\":{strict}}}}}"
                    );
                }
                EventKind::LocalPop { chunk } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"local pop\",\"cat\":\"acquire\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{},\"tid\":{tid},\"ts\":{ts},\"args\":{{\"chunk\":{chunk}}}}}",
                        e.node
                    );
                }
                EventKind::IntraNodeSteal { chunk, victim } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"intra-node steal\",\"cat\":\"acquire\",\"ph\":\"i\",\
                         \"s\":\"t\",\"pid\":{},\"tid\":{tid},\"ts\":{ts},\
                         \"args\":{{\"chunk\":{chunk},\"victim\":{victim}}}}}",
                        e.node
                    );
                }
                EventKind::InterNodeSteal { chunk, from } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"inter-node steal\",\"cat\":\"acquire\",\"ph\":\"i\",\
                         \"s\":\"p\",\"pid\":{},\"tid\":{tid},\"ts\":{ts},\
                         \"args\":{{\"chunk\":{chunk},\"from\":{from}}}}}",
                        e.node
                    );
                }
                EventKind::LatchRelease => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"latch release\",\"cat\":\"sync\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{},\"tid\":{tid},\"ts\":{ts},\"args\":{{}}}}",
                        e.node
                    );
                }
                EventKind::ExplorationDecision { site, threads } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"exploration decision\",\"cat\":\"policy\",\"ph\":\"i\",\
                         \"s\":\"g\",\"pid\":{},\"tid\":{tid},\"ts\":{ts},\
                         \"args\":{{\"site\":{site},\"threads\":{threads}}}}}",
                        e.node
                    );
                }
                EventKind::FaultInjected { fault, target } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"fault: {}\",\"cat\":\"chaos\",\"ph\":\"i\",\"s\":\"g\",\
                         \"pid\":{},\"tid\":{tid},\"ts\":{ts},\
                         \"args\":{{\"fault\":\"{}\",\"target\":{target}}}}}",
                        fault.label(),
                        e.node,
                        fault.label()
                    );
                }
                EventKind::Degraded { stage, count } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"degraded (stage {stage})\",\"cat\":\"chaos\",\"ph\":\"i\",\
                         \"s\":\"g\",\"pid\":{},\"tid\":{tid},\"ts\":{ts},\
                         \"args\":{{\"stage\":{stage},\"claimed\":{count}}}}}",
                        e.node
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// Chrome `tid` for a worker id: the dispatcher renders as thread -1.
fn tid_of(worker: u32) -> i64 {
    if worker == DISPATCHER {
        -1
    } else {
        worker as i64
    }
}

/// Nanoseconds → microsecond timestamp string (Chrome's `ts` unit), with
/// sub-microsecond precision preserved.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, worker: u32, node: u32, time_ns: u64, kind: EventKind) -> Event {
        Event {
            seq,
            worker,
            node,
            time_ns,
            kind,
        }
    }

    fn sample_log() -> EventLog {
        EventLog::from_events(
            vec![
                ev(
                    0,
                    DISPATCHER,
                    0,
                    0,
                    EventKind::ChunkEnqueue {
                        chunk: 0,
                        home: 0,
                        strict: true,
                    },
                ),
                ev(
                    1,
                    DISPATCHER,
                    1,
                    0,
                    EventKind::ChunkEnqueue {
                        chunk: 1,
                        home: 1,
                        strict: false,
                    },
                ),
                ev(0, 0, 0, 10, EventKind::LocalPop { chunk: 0 }),
                ev(1, 0, 0, 12, EventKind::ChunkStart { chunk: 0 }),
                ev(2, 0, 0, 40, EventKind::ChunkEnd { chunk: 0 }),
                ev(0, 1, 0, 15, EventKind::InterNodeSteal { chunk: 1, from: 1 }),
                ev(1, 1, 0, 17, EventKind::ChunkStart { chunk: 1 }),
                ev(2, 1, 0, 50, EventKind::ChunkEnd { chunk: 1 }),
                ev(3, 0, 0, 60, EventKind::LatchRelease),
                ev(3, 1, 0, 61, EventKind::LatchRelease),
            ],
            2,
            2,
            0,
        )
    }

    #[test]
    fn canonical_order_and_accessors() {
        let log = sample_log();
        assert_eq!(log.len(), 10);
        assert!(log
            .iter()
            .zip(log.iter().skip(1))
            .all(|(a, b)| { (a.time_ns, a.worker, a.seq) <= (b.time_ns, b.worker, b.seq) }));
        assert_eq!(log.inter_node_steals(), 1);
        assert_eq!(log.local_pops(), 1);
        assert_eq!(log.chunk_assignment(), vec![(0, 0, true), (1, 1, false)]);
        assert_eq!(log.exec_nodes(), vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn steal_matrix_counts_migrations() {
        let log = sample_log();
        let m = log.steal_matrix();
        assert_eq!(m[1][0], 1);
        assert_eq!(m[0][1], 0);
        let rendered = log.render_steal_matrix();
        assert!(rendered.contains("from"));
        assert_eq!(rendered.lines().count(), 2 + log.num_nodes);
    }

    #[test]
    fn chrome_json_has_complete_and_instant_events() {
        let json = sample_log().chrome_trace_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("inter-node steal"));
        assert!(json.contains("\"name\":\"chunk 0\""));
        // Start 12ns → 0.012us.
        assert!(json.contains("\"ts\":0.012"));
    }

    #[test]
    fn chrome_json_renders_chaos_events() {
        use crate::event::FaultTag;
        let log = EventLog::from_events(
            vec![
                ev(
                    0,
                    DISPATCHER,
                    0,
                    0,
                    EventKind::FaultInjected {
                        fault: FaultTag::DroppedWakeup,
                        target: 3,
                    },
                ),
                ev(
                    1,
                    DISPATCHER,
                    0,
                    9,
                    EventKind::Degraded { stage: 2, count: 1 },
                ),
            ],
            2,
            1,
            0,
        );
        let json = log.chrome_trace_json();
        assert!(json.contains("fault: dropped-wakeup"));
        assert!(json.contains("\"target\":3"));
        assert!(json.contains("degraded (stage 2)"));
        assert!(json.contains("\"claimed\":1"));
    }

    #[test]
    fn merge_combines_and_reorders() {
        let mut a = sample_log();
        let b = sample_log();
        a.merge(&b);
        assert_eq!(a.len(), 20);
        assert_eq!(a.inter_node_steals(), 2);
    }
}
