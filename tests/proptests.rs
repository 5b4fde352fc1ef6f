//! Property-based tests over the whole stack.

use ilan_suite::prelude::*;
use ilan_suite::trace::{EventRing, Recorder, DISPATCHER};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Decodes an arbitrary `(tag, a, b)` triple into an event kind, covering
/// every variant.
fn kind_from(tag: u8, a: u32, b: u32) -> EventKind {
    match tag % 8 {
        0 => EventKind::ChunkEnqueue {
            chunk: a,
            home: b % 64,
            strict: a.is_multiple_of(2),
        },
        1 => EventKind::LocalPop { chunk: a },
        2 => EventKind::IntraNodeSteal {
            chunk: a,
            victim: b,
        },
        3 => EventKind::InterNodeSteal {
            chunk: a,
            from: b % 64,
        },
        4 => EventKind::ChunkStart { chunk: a },
        5 => EventKind::ChunkEnd { chunk: a },
        6 => EventKind::LatchRelease,
        _ => EventKind::ExplorationDecision {
            site: a as u64,
            threads: b,
        },
    }
}

/// A minimal strict JSON syntax checker (no external deps): returns an error
/// with the byte offset of the first malformed construct.
mod minijson {
    pub fn validate(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        skip_ws(b, &mut i);
        value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn lit(b: &[u8], i: &mut usize, word: &str) -> Result<(), String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(())
        } else {
            Err(format!("expected {word} at {i}", i = *i))
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected string at {i}", i = *i));
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                b'\\' => *i += 2,
                0x00..=0x1f => return Err(format!("raw control char at {i}", i = *i)),
                _ => *i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        if b.get(*i) == Some(&b'.') {
            *i += 1;
            while b.get(*i).is_some_and(u8::is_ascii_digit) {
                *i += 1;
            }
        }
        if matches!(b.get(*i), Some(b'e' | b'E')) {
            *i += 1;
            if matches!(b.get(*i), Some(b'+' | b'-')) {
                *i += 1;
            }
            while b.get(*i).is_some_and(u8::is_ascii_digit) {
                *i += 1;
            }
        }
        if *i == start || b[start..*i] == [b'-'] {
            Err(format!("bad number at {start}"))
        } else {
            Ok(())
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(b, i);
                    string(b, i)?;
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(format!("expected : at {i}", i = *i));
                    }
                    *i += 1;
                    skip_ws(b, i);
                    value(b, i)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("malformed object at {i}", i = *i)),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(b, i);
                    value(b, i)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("malformed array at {i}", i = *i)),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') => lit(b, i, "true"),
            Some(b'f') => lit(b, i, "false"),
            Some(b'n') => lit(b, i, "null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            _ => Err(format!("expected value at {i}", i = *i)),
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(validate("{\"a\":[1,2.5,-3e4,true,null,\"x\"]}").is_ok());
        for bad in ["{", "[1,]", "{\"a\"}", "nul", "1..2", "\"\\", "{}{}"] {
            assert!(validate(bad).is_err(), "accepted {bad:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Node-mask algebra: union/intersection/difference behave as sets.
    #[test]
    fn nodemask_set_laws(a in 0u64.., b in 0u64..) {
        let (ma, mb) = (NodeMask::from_bits(a), NodeMask::from_bits(b));
        prop_assert_eq!(ma.union(mb).bits(), a | b);
        prop_assert_eq!(ma.intersection(mb).bits(), a & b);
        prop_assert_eq!(ma.difference(mb).bits(), a & !b);
        prop_assert!(ma.intersection(mb).is_subset(ma));
        prop_assert!(ma.is_subset(ma.union(mb)));
        prop_assert_eq!(
            ma.count() + mb.count(),
            ma.union(mb).count() + ma.intersection(mb).count()
        );
    }

    /// rank_of and nth are mutually inverse for every mask.
    #[test]
    fn nodemask_rank_nth_inverse(bits in 0u64..) {
        let m = NodeMask::from_bits(bits);
        for (rank, node) in m.iter().enumerate() {
            prop_assert_eq!(m.rank_of(node), Some(rank));
            prop_assert_eq!(m.nth(rank), Some(node));
        }
        prop_assert_eq!(m.nth(m.count()), None);
    }

    /// Chunking covers an arbitrary range exactly once.
    #[test]
    fn chunking_partitions_exactly(
        start in 0usize..10_000,
        len in 0usize..5_000,
        grain in 1usize..600,
    ) {
        let chunks = ilan_suite::runtime::chunk_ranges(start..start + len, grain);
        let mut covered = 0usize;
        let mut expected_next = start;
        for c in &chunks {
            prop_assert_eq!(c.start, expected_next, "chunks must be contiguous");
            prop_assert!(c.len() <= grain);
            prop_assert!(!c.is_empty());
            covered += c.len();
            expected_next = c.end;
        }
        prop_assert_eq!(covered, len);
    }

    /// The blocked chunk→node assignment is monotone (adjacent chunks stay
    /// together) and balanced within one chunk per node.
    #[test]
    fn chunk_assignment_monotone_and_balanced(
        mask_bits in 1u64..(1 << 8),
        chunks in 1usize..400,
    ) {
        let mask = NodeMask::from_bits(mask_bits);
        let a = ChunkAssignment::new(mask, chunks);
        let mut counts = vec![0usize; 64];
        let mut last_rank = 0usize;
        for i in 0..chunks {
            let node = a.node_of_chunk(i);
            prop_assert!(mask.contains(node));
            let rank = mask.rank_of(node).unwrap();
            prop_assert!(rank >= last_rank, "assignment must be monotone");
            last_rank = rank;
            counts[node.index()] += 1;
        }
        let nonzero: Vec<usize> =
            counts.iter().copied().filter(|&c| c > 0).collect();
        if chunks >= mask.count() {
            prop_assert_eq!(nonzero.len(), mask.count());
            let max = nonzero.iter().max().unwrap();
            let min = nonzero.iter().min().unwrap();
            prop_assert!(max - min <= 1, "imbalance {max}-{min}");
        }
    }

    /// Any topology the builder accepts produces consistent core↔node↔socket
    /// mappings.
    #[test]
    fn topology_mappings_consistent(
        sockets in 1usize..4,
        nodes_per_socket in 1usize..5,
        cores_per_node in 1usize..9,
    ) {
        let topo = Topology::builder()
            .sockets(sockets)
            .nodes_per_socket(nodes_per_socket)
            .cores_per_node(cores_per_node)
            .build()
            .unwrap();
        for c in 0..topo.num_cores() {
            let core = CoreId::new(c);
            let node = topo.node_of_core(core);
            prop_assert!(topo.cores_of_node(node).any(|x| x == core));
            prop_assert_eq!(topo.socket_of_core(core), topo.socket_of_node(node));
        }
        let all: usize = (0..topo.num_nodes())
            .map(|n| topo.cores_of_node(NodeId::new(n)).count())
            .sum();
        prop_assert_eq!(all, topo.num_cores());
    }

    /// grow_mask always returns the requested size (clamped), contains its
    /// seed, and prefers the seed's socket.
    #[test]
    fn grow_mask_properties(seed in 0usize..8, want in 0usize..12) {
        let topo = presets::epyc_9354_2s();
        let seed = NodeId::new(seed);
        let mask = topo.grow_mask(seed, want);
        prop_assert!(mask.contains(seed));
        prop_assert_eq!(mask.count(), want.clamp(1, 8));
        if mask.count() <= 4 {
            for n in mask.iter() {
                prop_assert_eq!(topo.socket_of_node(n), topo.socket_of_node(seed));
            }
        }
    }

    /// The simulator executes every chunk exactly once for arbitrary chunk
    /// counts, thread counts and strict fractions.
    #[test]
    fn sim_executes_all_chunks(
        chunks in 1usize..120,
        threads in 1usize..9,
        strict_pct in 0usize..=100,
    ) {
        let topo = presets::tiny_2x4();
        let blocked = ChunkAssignment::new(topo.all_nodes(), chunks);
        let tasks: Vec<TaskSpec> = (0..chunks)
            .map(|i| TaskSpec {
                compute_ns: 1_000.0 + (i % 7) as f64 * 500.0,
                mem_bytes: 20_000.0,
                home_node: blocked.node_of_chunk(i),
                locality: Locality::Chunked,
                data_mask: topo.all_nodes(),
                cache_reuse: 0.2,
                fits_l3: true,
            })
            .collect();
        // At least one thread per node.
        let threads = threads.max(2);
        let decision = Decision::Hierarchical {
            threads,
            mask: topo.all_nodes(),
            strict_fraction: strict_pct as f64 / 100.0,
            policy: StealPolicy::Full,
        };
        let mut machine =
            SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 0);
        let out = machine.run_taskloop(topo.all_nodes(), &decision, &tasks);
        prop_assert_eq!(out.tasks_executed(), chunks);
        prop_assert!(out.makespan_ns.is_finite() && out.makespan_ns > 0.0);
        prop_assert!(out.total_busy_ns() <= threads as f64 * out.makespan_ns + 1e-3);
    }

    /// The native runtime executes every iteration exactly once for random
    /// loop shapes and modes.
    #[test]
    fn native_executes_all_iterations(
        n in 1usize..2_000,
        grain in 1usize..200,
        mode_pick in 0usize..3,
    ) {
        let pool = ThreadPool::new(
            PoolConfig::new(presets::tiny_2x4()).pin(PinMode::Never),
        ).unwrap();
        let mode = match mode_pick {
            0 => ExecMode::Flat,
            1 => ExecMode::WorkSharing,
            _ => ExecMode::Hierarchical {
                mask: pool.topology().all_nodes(),
                threads: 0,
                strict_fraction: 0.5,
                policy: StealPolicy::Full,
            },
        };
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.taskloop(0..n, grain, mode, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// ILAN's decisions are always executable: threads within machine size
    /// and a multiple of g during search, mask non-empty and sized to hold
    /// the threads.
    #[test]
    fn ilan_decisions_always_valid(times in proptest::collection::vec(1_000.0f64..1e9, 8..14)) {
        let topo = presets::epyc_9354_2s();
        let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
        let site = SiteId::new(0);
        for t in times {
            let d = ilan.decide(site);
            let Decision::Hierarchical { threads, mask, .. } = &d else {
                prop_assert!(false, "ILAN must always be hierarchical");
                return Ok(());
            };
            prop_assert!(*threads >= 1 && *threads <= 64);
            prop_assert_eq!(threads % 8, 0, "g-granularity violated");
            prop_assert!(!mask.is_empty());
            prop_assert!(mask.count() * topo.cores_per_node() >= *threads);
            let report = TaskloopReport::synthetic(t, *threads);
            ilan.record(site, &d, &report);
        }
    }

    /// The search always terminates: by invocation 12 every site is settled,
    /// no matter what times the machine reports.
    #[test]
    fn search_always_settles(times in proptest::collection::vec(1.0f64..1e6, 12)) {
        let topo = presets::epyc_9354_2s();
        let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
        let site = SiteId::new(3);
        for t in &times {
            let d = ilan.decide(site);
            let Decision::Hierarchical { threads, .. } = d else {
                panic!("{d:?}")
            };
            ilan.record(site, &d, &TaskloopReport::synthetic(*t, threads));
        }
        prop_assert!(
            ilan.settled_decision(site).is_some(),
            "still unsettled after 12 invocations"
        );
    }

    /// The bounded event ring keeps every event up to its capacity and
    /// drops newest beyond it — never losing, reordering or corrupting the
    /// committed prefix, with gap-free sequence numbers.
    #[test]
    fn ring_round_trips_without_loss_or_reorder(
        events in proptest::collection::vec((0u8..8, 0u32..512, 0u32..64), 0..400),
        cap in 1usize..200,
    ) {
        let ring = EventRing::with_capacity(cap);
        let pushed: Vec<EventKind> = events
            .iter()
            .map(|&(tag, a, b)| kind_from(tag, a, b))
            .collect();
        for (i, kind) in pushed.iter().enumerate() {
            ring.push(3, (i % 4) as u32, i as u64 * 7, *kind);
        }
        let kept = ring.snapshot();
        prop_assert_eq!(kept.len(), pushed.len().min(cap));
        prop_assert_eq!(ring.dropped(), pushed.len().saturating_sub(cap));
        for (i, e) in kept.iter().enumerate() {
            prop_assert_eq!(e.seq, i as u64, "sequence gap");
            prop_assert_eq!(e.worker, 3);
            prop_assert_eq!(e.time_ns, i as u64 * 7);
            prop_assert_eq!(e.kind, pushed[i], "event corrupted in slot {i}");
        }
    }

    /// The Chrome-trace exporter emits syntactically valid JSON for
    /// arbitrary event logs — including unpaired starts/ends and events
    /// from the dispatcher pseudo-worker.
    #[test]
    fn chrome_export_is_valid_json_for_arbitrary_logs(
        events in proptest::collection::vec(
            (0u8..8, 0u32..512, 0u32..64, 0u32..9, 0u64..1 << 40),
            0..300,
        ),
    ) {
        let mut rec = Recorder::new();
        for &(tag, a, b, w, t) in &events {
            let worker = if w == 8 { DISPATCHER } else { w };
            rec.push(worker, b % 8, t, kind_from(tag, a, b));
        }
        let log = rec.into_log(8, 8);
        let json = log.chrome_trace_json();
        prop_assert!(json.contains("\"traceEvents\""));
        if let Err(e) = minijson::validate(&json) {
            prop_assert!(false, "invalid chrome JSON ({e}):\n{json}");
        }
    }
}

/// A real traced native run exports valid Chrome JSON with one complete
/// (`"X"`) slice per executed chunk.
#[test]
fn native_chrome_export_is_valid_and_complete() {
    let pool = ThreadPool::new(PoolConfig::new(presets::tiny_2x4()).pin(PinMode::Never)).unwrap();
    let (report, log) = pool.taskloop_traced(
        0..300,
        7,
        ExecMode::Hierarchical {
            mask: pool.topology().all_nodes(),
            threads: 0,
            strict_fraction: 0.5,
            policy: StealPolicy::Full,
        },
        |r| {
            std::hint::black_box(r.sum::<usize>());
        },
    );
    let json = log.chrome_trace_json();
    minijson::validate(&json).expect("valid JSON");
    let slices = json.matches("\"ph\":\"X\"").count();
    assert_eq!(slices, report.tasks_executed());
    assert!(json.contains("\"displayTimeUnit\""));
}
