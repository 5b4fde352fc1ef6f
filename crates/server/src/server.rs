//! The co-scheduling service: admission control over a shared machine.
//!
//! [`run_colocation`] replays a job stream against one [`ColoMachine`]:
//!
//! 1. Arrived jobs enter the wait queue (high priority first, then arrival
//!    order).
//! 2. The admission controller classifies each waiting job's bandwidth
//!    demand — statically from its chunk cost model, overridden by stored
//!    PTT history when the workload has run before — and admits it the
//!    moment the [`Partitioner`] can grant a partition. Jobs that do not
//!    fit are skipped, not blocking smaller jobs behind them (backfill
//!    without reservations).
//! 3. Each admitted job becomes a [`Tenant`] on its own machine lane,
//!    running its ILAN scheduler confined to its partition. The scheduler
//!    is warm-started from the [`PttStore`] when a previous job of the same
//!    (workload, partition size) already paid the exploration cost.
//! 4. On job completion the tenant's PTT is saved back to the store (as
//!    text, exercising the persistence format in the serving path) and the
//!    partition is released, which may admit waiting jobs.
//!
//! Per-job slowdowns are measured against the same job run alone on the
//! whole machine with a cold scheduler, on a separate machine seeded
//! deterministically from the run seed.
//!
//! **Resilience** — [`run_colocation_faulty`] replays the same loop under an
//! [`ilan_faults::FaultPlan`] and reports how the service degraded instead
//! of failing: injected loop failures are retried with exponential backoff
//! (without perturbing the tenant's scheduler state), corrupted PTT saves
//! are detected at load time and fall back to a cold start, arrivals beyond
//! the plan's admission-queue limit are shed (tracked, never silently
//! dropped), and job bursts stress the queue at seed-chosen completions.

use crate::job::{JobPriority, JobSpec};
use crate::metrics::JobRecord;
use crate::partition::{is_bandwidth_hungry, Partitioner, SharingPolicy};
use crate::telemetry::ServerMetrics;
use crate::tenant::Tenant;
use ilan::ptt::Ptt;
use ilan_faults::FaultPlan;
use ilan_numasim::{ColoMachine, MachineParams};
use ilan_topology::Topology;
use ilan_workloads::{Scale, SimApp, Workload};
use std::collections::HashMap;
use std::fmt;

/// Base of the retry backoff for injected loop failures, ns. Attempt `k`
/// (1-based) resubmits after `RETRY_BACKOFF_NS × 2^(k-1)`.
pub const RETRY_BACKOFF_NS: f64 = 20_000.0;

/// Configuration of a serving run.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The machine.
    pub topology: Topology,
    /// How tenants share it.
    pub policy: SharingPolicy,
    /// Workload problem scale.
    pub scale: Scale,
    /// Maximum concurrent tenants (equal-slot count for the partitioned
    /// policies).
    pub max_tenants: usize,
    /// Whether completed jobs' PTTs warm-start later jobs of the same
    /// (workload, partition size).
    pub warm_start: bool,
}

impl ServerConfig {
    /// Defaults for a topology: quick-scale workloads, up to four tenants
    /// (fewer on machines with fewer nodes), warm start on.
    pub fn new(topology: &Topology, policy: SharingPolicy) -> Self {
        ServerConfig {
            topology: topology.clone(),
            policy,
            scale: Scale::Quick,
            max_tenants: topology.num_nodes().min(4),
            warm_start: true,
        }
    }
}

/// Persistent PTTs keyed by (workload, partition node count), stored in the
/// plain-text format so every warm start exercises a save/load round trip.
#[derive(Default)]
pub struct PttStore {
    entries: HashMap<(Workload, usize), StoredPtt>,
}

/// One saved PTT: its text, plus the hunger signal parsed from it once at
/// save time.
struct StoredPtt {
    text: String,
    /// The fewest threads at which any of the PTT's sites settled; `None`
    /// if the text does not parse or no site has a measured configuration.
    fewest_settled_threads: Option<usize>,
}

impl PttStore {
    /// Saves `ptt` for later jobs of the same workload and partition size.
    pub fn save(&mut self, workload: Workload, partition_nodes: usize, ptt: &Ptt) {
        self.save_raw(workload, partition_nodes, ptt.save_text());
    }

    /// Saves pre-rendered PTT text verbatim — the fault-injection path uses
    /// this to plant corrupted bytes the loader must survive.
    pub fn save_raw(&mut self, workload: Workload, partition_nodes: usize, text: String) {
        // Corrupted entries carry no signal.
        let fewest_settled_threads = Ptt::load_text(&text).ok().and_then(|ptt| {
            ptt.site_ids()
                .into_iter()
                .filter_map(|site| Some(ptt.site(site)?.fastest()?.threads))
                .min()
        });
        self.entries.insert(
            (workload, partition_nodes),
            StoredPtt {
                text,
                fewest_settled_threads,
            },
        );
    }

    /// Loads the stored PTT, if any. Lenient: unparsable text (a corrupted
    /// or torn save) reads as *absent*, so the caller cold-starts instead of
    /// crashing — stored history is a cache, never ground truth.
    pub fn load(&self, workload: Workload, partition_nodes: usize) -> Option<Ptt> {
        self.entries
            .get(&(workload, partition_nodes))
            .and_then(|stored| Ptt::load_text(&stored.text).ok())
    }

    /// Whether an entry exists for the key, parsable or not. Together with
    /// [`load`](Self::load) this distinguishes "never saved" from
    /// "saved but corrupted" (a recovered cold start).
    pub fn has(&self, workload: Workload, partition_nodes: usize) -> bool {
        self.entries.contains_key(&(workload, partition_nodes))
    }

    /// Whether any stored PTT for `workload` settled below the partition's
    /// core capacity — the PTT-derived bandwidth-hunger signal (an interior
    /// moldability optimum means the loop saturates memory before cores).
    /// Reads the signal memoized at save time; nothing is parsed here.
    pub fn hungry_hint(&self, workload: Workload, cores_per_node: usize) -> Option<bool> {
        let mut seen = false;
        for ((w, nodes), stored) in &self.entries {
            if *w != workload {
                continue;
            }
            let Some(threads) = stored.fewest_settled_threads else {
                continue;
            };
            seen = true;
            if threads < nodes * cores_per_node {
                return Some(true);
            }
        }
        seen.then_some(false)
    }
}

/// Latency of `job` run alone on the whole machine with a cold scheduler.
fn isolated_latency_ns(
    topology: &Topology,
    scale: Scale,
    workload: Workload,
    steps: usize,
    seed: u64,
) -> f64 {
    let params = MachineParams::for_topology(topology);
    let mut machine = ColoMachine::new(params, seed);
    let lane = machine.add_lane();
    let job = JobSpec {
        id: usize::MAX,
        workload,
        steps,
        priority: JobPriority::Normal,
        arrival_ns: 0.0,
    };
    let mut tenant = Tenant::new(
        job,
        topology.all_nodes(),
        false,
        topology,
        scale,
        None,
        lane,
        0.0,
    );
    tenant.start_next(&mut machine);
    loop {
        let (_, outcome) = machine
            .run_until_next_completion()
            .expect("isolated job has a loop in flight");
        if tenant.on_completion(&outcome) {
            return machine.now_ns();
        }
        tenant.start_next(&mut machine);
    }
}

/// Replays `stream` under `config`, returning one record per job, in
/// completion order. Deterministic in `(config, stream, seed)`.
pub fn run_colocation(config: &ServerConfig, stream: &[JobSpec], seed: u64) -> Vec<JobRecord> {
    run_colocation_impl(config, stream, seed, None).records
}

/// Like [`run_colocation`], returning the full [`ColoRunReport`] — including
/// the live-metrics exposition ([`ColoRunReport::metrics_text`]) — instead
/// of just the records. A fault-free run has every degradation counter at
/// zero.
pub fn run_colocation_report(
    config: &ServerConfig,
    stream: &[JobSpec],
    seed: u64,
) -> ColoRunReport {
    run_colocation_impl(config, stream, seed, None)
}

/// Outcome of a colocation run under fault injection: the served jobs plus
/// the degradations the service absorbed. Produced by
/// [`run_colocation_faulty`]; a fault-free run has every counter at zero.
#[derive(Clone, Debug)]
pub struct ColoRunReport {
    /// Served jobs, in completion order (stream jobs and burst jobs).
    pub records: Vec<JobRecord>,
    /// Jobs shed at admission because the wait queue exceeded the plan's
    /// limit. Shed jobs are never admitted and never produce a record.
    pub shed: Vec<JobSpec>,
    /// Invocations resubmitted after an injected loop failure.
    pub retries: usize,
    /// Extra jobs injected by the plan's bursts.
    pub injected_jobs: usize,
    /// PTT saves written with corrupted text.
    pub corrupted_saves: usize,
    /// Warm-start attempts that found a stored-but-unparsable PTT and fell
    /// back to a cold start.
    pub recovered_cold_starts: usize,
    /// Final OpenMetrics exposition of the run's live series (see
    /// [`metrics_text`](Self::metrics_text)).
    metrics_text: String,
}

impl ColoRunReport {
    /// The run's live-metrics exposition: admission/shed/retry counters and
    /// per-workload latency, wait and overhead histograms, rendered as
    /// OpenMetrics text at the end of the run. Deterministic — the same
    /// `(config, stream, seed, plan)` renders byte-identical text.
    pub fn metrics_text(&self) -> &str {
        &self.metrics_text
    }
}

impl fmt::Display for ColoRunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "served={} shed={} retries={} injected={} corrupted-saves={} recovered-cold-starts={}",
            self.records.len(),
            self.shed.len(),
            self.retries,
            self.injected_jobs,
            self.corrupted_saves,
            self.recovered_cold_starts
        )
    }
}

/// [`run_colocation`] under a fault plan: injected loop failures, PTT
/// corruption, admission shedding, and job bursts (see module docs).
/// Deterministic in `(config, stream, seed, plan)` — the same plan replays
/// the same degradations.
pub fn run_colocation_faulty(
    config: &ServerConfig,
    stream: &[JobSpec],
    seed: u64,
    plan: &FaultPlan,
) -> ColoRunReport {
    run_colocation_impl(config, stream, seed, Some(plan))
}

fn run_colocation_impl(
    config: &ServerConfig,
    stream: &[JobSpec],
    seed: u64,
    faults: Option<&FaultPlan>,
) -> ColoRunReport {
    let topo = &config.topology;
    let params = MachineParams::for_topology(topo);
    let mut machine = ColoMachine::new(params.clone(), seed);
    let mut partitioner = Partitioner::new(config.policy, topo, config.max_tenants);
    let mut store = PttStore::default();
    let metrics = ServerMetrics::new();

    // Static demand classification and isolated baselines, one per distinct
    // (workload, steps) in stream order.
    let mut apps: HashMap<Workload, SimApp> = HashMap::new();
    let mut static_hungry: HashMap<Workload, bool> = HashMap::new();
    let mut baselines: HashMap<(Workload, usize), f64> = HashMap::new();
    for (i, job) in stream.iter().enumerate() {
        let app = apps
            .entry(job.workload)
            .or_insert_with(|| job.workload.sim_app(topo, config.scale));
        static_hungry
            .entry(job.workload)
            .or_insert_with(|| is_bandwidth_hungry(app, topo, &params));
        baselines
            .entry((job.workload, job.steps))
            .or_insert_with(|| {
                isolated_latency_ns(
                    topo,
                    config.scale,
                    job.workload,
                    job.steps,
                    seed ^ 0x1505_19AF ^ (i as u64),
                )
            });
    }

    // Pending arrivals (sorted), the wait queue, and active tenants by lane.
    let mut pending: Vec<JobSpec> = stream.to_vec();
    pending.sort_by(|a, b| {
        a.arrival_ns
            .partial_cmp(&b.arrival_ns)
            .expect("finite arrivals")
            .then(a.id.cmp(&b.id))
    });
    let mut next_pending = 0usize;
    let mut waiting: Vec<JobSpec> = Vec::new();
    let mut tenants: HashMap<usize, Tenant> = HashMap::new();
    let mut records: Vec<JobRecord> = Vec::new();

    // Fault bookkeeping (all zero / inert without a plan).
    let mut shed: Vec<JobSpec> = Vec::new();
    let mut retries = 0usize;
    let mut corrupted_saves = 0usize;
    let mut recovered_cold_starts = 0usize;
    let mut injected_jobs = 0usize;
    let mut save_index = 0u64;
    let shed_limit = faults.and_then(|p| p.shed_queue_limit());
    let mut bursts: Vec<ilan_faults::BurstSpec> =
        faults.map(|p| p.bursts().to_vec()).unwrap_or_default();
    bursts.sort_by_key(|b| b.after_job);
    let mut next_burst = 0usize;
    let mut next_id = stream.iter().map(|j| j.id + 1).max().unwrap_or(0);

    loop {
        let now = machine.now_ns();
        // Move due arrivals into the wait queue, highest priority first,
        // then arrival order (ids break exact-time ties deterministically).
        // Over the plan's queue limit, arrivals are shed instead.
        while next_pending < pending.len() && pending[next_pending].arrival_ns <= now {
            let job = pending[next_pending].clone();
            next_pending += 1;
            if shed_limit.is_some_and(|limit| waiting.len() >= limit) {
                shed.push(job);
                metrics.sheds.inc();
            } else {
                waiting.push(job);
            }
        }
        waiting.sort_by(|a, b| a.priority.cmp(&b.priority).then(a.id.cmp(&b.id)));

        // Admit every waiting job that fits (backfill).
        let mut i = 0;
        while i < waiting.len() {
            let job = &waiting[i];
            let hungry = store
                .hungry_hint(job.workload, topo.cores_per_node())
                .unwrap_or(static_hungry[&job.workload]);
            match partitioner.try_allocate(hungry) {
                Some(partition) => {
                    let job = waiting.remove(i);
                    let warm = if config.warm_start {
                        let loaded = store.load(job.workload, partition.count());
                        if loaded.is_none() && store.has(job.workload, partition.count()) {
                            // Stored but unparsable: a corrupted save the
                            // lenient loader degraded to a cold start.
                            recovered_cold_starts += 1;
                            metrics.cold_recoveries.inc();
                        }
                        loaded
                    } else {
                        None
                    };
                    metrics.admissions.inc();
                    if warm.is_some() {
                        metrics.warm_starts.inc();
                    }
                    let lane = machine.add_lane();
                    let mut tenant =
                        Tenant::new(job, partition, hungry, topo, config.scale, warm, lane, now);
                    tenant.start_next(&mut machine);
                    tenants.insert(lane, tenant);
                }
                None => i += 1,
            }
        }
        metrics.active_tenants.set(tenants.len() as i64);
        metrics.waiting_jobs.set(waiting.len() as i64);

        // Advance the machine to the next completion or arrival.
        let next_arrival = pending.get(next_pending).map(|j| j.arrival_ns);
        let completion = if machine.any_busy() {
            match next_arrival {
                Some(t) => machine.run_until_ns(t),
                None => machine.run_until_next_completion(),
            }
        } else if let Some(t) = next_arrival {
            machine.run_until_ns(t)
        } else {
            assert!(
                waiting.is_empty(),
                "jobs stuck in the wait queue on an idle machine"
            );
            break;
        };

        if let Some((lane, outcome)) = completion {
            let tenant = tenants.get_mut(&lane).expect("completion on unknown lane");
            // An injected loop failure: the invocation's outcome is void;
            // retry it with exponential backoff until the plan's failure
            // count for (job, invocation) is exhausted.
            let failures = faults.map_or(0, |p| {
                p.loop_failures(tenant.job.id as u64, tenant.invocation_index() as u64)
            });
            if tenant.attempts() < failures {
                tenant.retry_current(&mut machine, RETRY_BACKOFF_NS);
                retries += 1;
                metrics.retries.inc();
                continue;
            }
            if tenant.on_completion(&outcome) {
                let tenant = tenants.remove(&lane).expect("just seen");
                let key = (tenant.job.workload, tenant.job.steps);
                let record = JobRecord {
                    id: tenant.job.id,
                    workload: tenant.job.workload,
                    priority: tenant.job.priority,
                    arrival_ns: tenant.job.arrival_ns,
                    admitted_ns: tenant.admitted_ns,
                    finish_ns: machine.now_ns(),
                    partition_nodes: tenant.partition.count(),
                    warm_started: tenant.warm_started,
                    sched_overhead_ns: tenant.sched_overhead_ns,
                    isolated_ns: baselines[&key],
                };
                metrics.note_completion(&record);
                records.push(record);
                if config.warm_start {
                    let mut text = tenant.scheduler().ptt().save_text();
                    if let Some(p) = faults {
                        if p.corrupts_ptt(save_index) {
                            text = p.corrupt_text(&text);
                            corrupted_saves += 1;
                            metrics.corrupted_saves.inc();
                        }
                    }
                    save_index += 1;
                    store.save_raw(tenant.job.workload, tenant.partition.count(), text);
                }
                partitioner.release(tenant.partition, tenant.hungry);
                // Bursts fire on the plan's completion counts: a batch of
                // clones of stream jobs arriving at once, stressing the
                // admission queue (and the shed path, if the queue is full).
                while next_burst < bursts.len() && records.len() >= bursts[next_burst].after_job {
                    let b = bursts[next_burst];
                    next_burst += 1;
                    for k in 0..b.jobs {
                        let mut j = stream[(injected_jobs + k) % stream.len()].clone();
                        j.id = next_id;
                        next_id += 1;
                        j.arrival_ns = machine.now_ns();
                        if shed_limit.is_some_and(|limit| waiting.len() >= limit) {
                            shed.push(j);
                            metrics.sheds.inc();
                        } else {
                            waiting.push(j);
                        }
                    }
                    injected_jobs += b.jobs;
                    metrics.burst_jobs.add(b.jobs as u64);
                }
            } else {
                tenant.start_next(&mut machine);
            }
        }
    }

    assert_eq!(
        records.len() + shed.len(),
        stream.len() + injected_jobs,
        "every submitted job must complete or be accounted as shed"
    );
    metrics.active_tenants.set(0);
    metrics.waiting_jobs.set(0);
    ColoRunReport {
        records,
        shed,
        retries,
        injected_jobs,
        corrupted_saves,
        recovered_cold_starts,
        metrics_text: metrics.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{generate_stream, StreamParams};
    use ilan_topology::presets;

    fn quick_config(policy: SharingPolicy) -> ServerConfig {
        ServerConfig::new(&presets::tiny_2x4(), policy)
    }

    #[test]
    fn serves_every_job_in_stream() {
        let cfg = quick_config(SharingPolicy::StaticEqual);
        let stream = generate_stream(3, &StreamParams::mixed(6, 2e6));
        let records = run_colocation(&cfg, &stream, 3);
        assert_eq!(records.len(), 6);
        for r in &records {
            assert!(
                r.admitted_ns >= r.arrival_ns - 1e-9,
                "admitted before arrival"
            );
            assert!(r.finish_ns > r.admitted_ns, "zero-length job");
            assert!(r.isolated_ns > 0.0);
            assert!(r.slowdown() > 0.0);
        }
    }

    #[test]
    fn run_is_deterministic() {
        let cfg = quick_config(SharingPolicy::InterferenceAware);
        let stream = generate_stream(5, &StreamParams::mixed(5, 1e6));
        let a = run_colocation(&cfg, &stream, 5);
        let b = run_colocation(&cfg, &stream, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.finish_ns, y.finish_ns);
            assert_eq!(x.admitted_ns, y.admitted_ns);
        }
    }

    #[test]
    fn warm_start_kicks_in_for_repeat_workloads() {
        // Sequential identical jobs (huge inter-arrival gap): the second one
        // must be warm-started and skip the exploration the first one paid.
        let cfg = quick_config(SharingPolicy::Naive);
        let p = StreamParams {
            jobs: 2,
            mean_interarrival_ns: 1e12,
            mix: vec![Workload::Cg],
            steps: 2,
            high_priority_fraction: 0.0,
        };
        let stream = generate_stream(1, &p);
        let mut records = run_colocation(&cfg, &stream, 1);
        records.sort_by_key(|r| r.id);
        assert!(!records[0].warm_started);
        assert!(records[1].warm_started);
        assert!(
            records[1].exec_ns() < records[0].exec_ns(),
            "warm job ({:.0}ns) not faster than cold job ({:.0}ns)",
            records[1].exec_ns(),
            records[0].exec_ns()
        );
    }

    #[test]
    fn warm_start_can_be_disabled() {
        let mut cfg = quick_config(SharingPolicy::Naive);
        cfg.warm_start = false;
        let p = StreamParams {
            jobs: 2,
            mean_interarrival_ns: 1e12,
            mix: vec![Workload::Cg],
            steps: 1,
            high_priority_fraction: 0.0,
        };
        let stream = generate_stream(1, &p);
        let records = run_colocation(&cfg, &stream, 1);
        assert!(records.iter().all(|r| !r.warm_started));
    }

    #[test]
    fn faulty_run_with_inert_plan_matches_plain_run() {
        use ilan_faults::FaultConfig;
        let cfg = quick_config(SharingPolicy::InterferenceAware);
        let stream = generate_stream(5, &StreamParams::mixed(5, 1e6));
        let plain = run_colocation(&cfg, &stream, 5);
        let report = run_colocation_faulty(
            &cfg,
            &stream,
            5,
            &ilan_faults::FaultPlan::new(9, 8, 2, FaultConfig::none()),
        );
        assert_eq!(report.retries, 0);
        assert!(report.shed.is_empty());
        assert_eq!(report.corrupted_saves, 0);
        assert_eq!(report.injected_jobs, 0);
        for (x, y) in plain.iter().zip(&report.records) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.finish_ns, y.finish_ns);
        }
    }

    #[test]
    fn injected_loop_failures_are_retried_to_completion() {
        use ilan_faults::{FaultConfig, FaultPlan};
        let cfg = quick_config(SharingPolicy::StaticEqual);
        let stream = generate_stream(2, &StreamParams::mixed(4, 1e6));
        let config = FaultConfig {
            max_loop_failures: 2,
            loop_failure_denom: 3,
            ..FaultConfig::none()
        };
        let plan = (0..1_000u64)
            .map(|s| FaultPlan::new(s, 8, 2, config))
            .find(|p| (0..4u64).any(|j| (0..8u64).any(|i| p.loop_failures(j, i) > 0)))
            .expect("some seed injects a loop failure");
        let report = run_colocation_faulty(&cfg, &stream, 2, &plan);
        assert!(report.retries > 0, "plan was chosen to inject failures");
        assert_eq!(
            report.records.len(),
            stream.len(),
            "retries must not lose jobs"
        );
        // Retried invocations stretch latency but never break accounting.
        for r in &report.records {
            assert!(r.finish_ns > r.admitted_ns);
            assert!(r.slowdown() > 0.0);
        }
        // Same plan, same degradations: the report line is byte-stable.
        let replay = run_colocation_faulty(&cfg, &stream, 2, &plan);
        assert_eq!(report.to_string(), replay.to_string());
    }

    #[test]
    fn corrupted_ptt_saves_degrade_to_cold_starts() {
        use ilan_faults::{FaultConfig, FaultPlan};
        // Every save is corrupted; sequential identical jobs would normally
        // warm-start from each other.
        let cfg = quick_config(SharingPolicy::Naive);
        let p = StreamParams {
            jobs: 2,
            mean_interarrival_ns: 1e12,
            mix: vec![Workload::Cg],
            steps: 2,
            high_priority_fraction: 0.0,
        };
        let stream = generate_stream(1, &p);
        let config = FaultConfig {
            ptt_corruption_denom: 1,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::new(4, 8, 2, config);
        let report = run_colocation_faulty(&cfg, &stream, 1, &plan);
        assert_eq!(report.records.len(), 2);
        assert!(report.corrupted_saves >= 1);
        assert!(
            report.recovered_cold_starts >= 1,
            "lenient load must notice the corruption"
        );
        // The would-be warm job cold-started instead of crashing.
        assert!(report.records.iter().all(|r| !r.warm_started));
    }

    #[test]
    fn overloaded_queue_sheds_with_full_accounting() {
        use ilan_faults::{FaultConfig, FaultPlan};
        // Many near-simultaneous arrivals against a queue capped at 1.
        let cfg = quick_config(SharingPolicy::StaticEqual);
        let stream = generate_stream(7, &StreamParams::mixed(10, 1.0));
        let config = FaultConfig {
            shed_queue_limit: Some(1),
            ..FaultConfig::none()
        };
        let plan = FaultPlan::new(7, 8, 2, config);
        let report = run_colocation_faulty(&cfg, &stream, 7, &plan);
        assert!(!report.shed.is_empty(), "overload must shed");
        assert_eq!(report.records.len() + report.shed.len(), stream.len());
        // Shed jobs were never admitted: no record carries their id.
        for s in &report.shed {
            assert!(report.records.iter().all(|r| r.id != s.id));
        }
    }

    #[test]
    fn bursts_inject_extra_jobs_that_all_complete() {
        use ilan_faults::{FaultConfig, FaultPlan};
        let cfg = quick_config(SharingPolicy::StaticEqual);
        let stream = generate_stream(3, &StreamParams::mixed(3, 1e6));
        let config = FaultConfig {
            max_bursts: 2,
            max_burst_jobs: 2,
            ..FaultConfig::none()
        };
        let plan = (0..1_000u64)
            .map(|s| FaultPlan::new(s, 8, 2, config))
            .find(|p| p.bursts().iter().any(|b| b.after_job <= 2 && b.jobs > 0))
            .expect("some seed bursts early enough to fire");
        let report = run_colocation_faulty(&cfg, &stream, 3, &plan);
        assert!(report.injected_jobs > 0, "plan was chosen to fire a burst");
        assert_eq!(
            report.records.len() + report.shed.len(),
            stream.len() + report.injected_jobs
        );
        // Burst jobs carry fresh ids above the stream's.
        let max_stream_id = stream.iter().map(|j| j.id).max().unwrap();
        assert!(report.records.iter().any(|r| r.id > max_stream_id));
    }

    /// The live exposition agrees with the run's record-level accounting and
    /// is byte-deterministic across replays.
    #[test]
    fn metrics_text_agrees_with_report() {
        let cfg = quick_config(SharingPolicy::StaticEqual);
        let stream = generate_stream(3, &StreamParams::mixed(6, 2e6));
        let report = run_colocation_report(&cfg, &stream, 3);
        let text = report.metrics_text();
        assert!(text.ends_with("# EOF\n"));
        // Every stream job was admitted exactly once and completed.
        assert!(
            text.contains(&format!(
                "ilan_server_admissions_total {}",
                report.records.len()
            )),
            "admissions line missing in:\n{text}"
        );
        // Per-workload completion counters sum to the records.
        let completions: u64 = text
            .lines()
            .filter(|l| l.starts_with("ilan_server_completions_total"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(completions as usize, report.records.len());
        // Warm starts in the exposition match the records.
        let warm = report.records.iter().filter(|r| r.warm_started).count();
        assert!(text.contains(&format!("ilan_server_warm_starts_total {warm}")));
        // Idle at the end: the gauges read zero.
        assert!(text.contains("ilan_server_active_tenants 0"));
        assert!(text.contains("ilan_server_waiting_jobs 0"));
        // No faults injected: every degradation counter reads zero.
        for family in [
            "ilan_server_sheds_total 0",
            "ilan_server_retries_total 0",
            "ilan_server_corrupted_saves_total 0",
            "ilan_server_burst_jobs_total 0",
        ] {
            assert!(text.contains(family), "missing `{family}` in:\n{text}");
        }
        // Determinism: the replay renders byte-identical text.
        let replay = run_colocation_report(&cfg, &stream, 3);
        assert_eq!(text, replay.metrics_text());
    }

    /// Under a fault plan, the degradation counters in the exposition match
    /// the report's accounting exactly.
    #[test]
    fn faulty_metrics_text_counts_degradations() {
        use ilan_faults::{FaultConfig, FaultPlan};
        let cfg = quick_config(SharingPolicy::StaticEqual);
        let stream = generate_stream(2, &StreamParams::mixed(4, 1e6));
        let config = FaultConfig {
            max_loop_failures: 2,
            loop_failure_denom: 3,
            ..FaultConfig::none()
        };
        let plan = (0..1_000u64)
            .map(|s| FaultPlan::new(s, 8, 2, config))
            .find(|p| (0..4u64).any(|j| (0..8u64).any(|i| p.loop_failures(j, i) > 0)))
            .expect("some seed injects a loop failure");
        let report = run_colocation_faulty(&cfg, &stream, 2, &plan);
        assert!(report.retries > 0);
        let text = report.metrics_text();
        assert!(
            text.contains(&format!("ilan_server_retries_total {}", report.retries)),
            "retry counter disagrees with report in:\n{text}"
        );
        assert!(text.contains(&format!("ilan_server_sheds_total {}", report.shed.len())));
    }

    #[test]
    fn hungry_hint_reads_the_stored_ptt() {
        let mut store = PttStore::default();
        assert_eq!(store.hungry_hint(Workload::Cg, 4), None);
        // A PTT that settled at 4 threads in an 8-core (2-node) partition.
        let mut ptt = Ptt::new();
        ptt.record(
            ilan::SiteId::new(0),
            4,
            ilan_topology::NodeMask::first_n(1),
            ilan::StealPolicy::Strict,
            &ilan::TaskloopReport::synthetic(100.0, 4),
        );
        store.save(Workload::Cg, 2, &ptt);
        assert_eq!(store.hungry_hint(Workload::Cg, 4), Some(true));
        assert_eq!(store.hungry_hint(Workload::Sp, 4), None);
        // A PTT settled at full capacity reads as not hungry.
        let mut full = Ptt::new();
        full.record(
            ilan::SiteId::new(0),
            8,
            ilan_topology::NodeMask::first_n(2),
            ilan::StealPolicy::Strict,
            &ilan::TaskloopReport::synthetic(100.0, 8),
        );
        let mut store2 = PttStore::default();
        store2.save(Workload::Sp, 2, &full);
        assert_eq!(store2.hungry_hint(Workload::Sp, 4), Some(false));
    }

    /// The hunger hint as computed before it was memoized: every stored
    /// text re-parsed on every call. The reference for the memo below.
    fn reparsed_hungry_hint(
        store: &PttStore,
        workload: Workload,
        cores_per_node: usize,
    ) -> Option<bool> {
        let mut seen = false;
        for ((w, nodes), stored) in &store.entries {
            if *w != workload {
                continue;
            }
            let Ok(ptt) = Ptt::load_text(&stored.text) else {
                continue;
            };
            for site in ptt.site_ids() {
                let Some(best) = ptt.site(site).and_then(|t| t.fastest()) else {
                    continue;
                };
                seen = true;
                if best.threads < nodes * cores_per_node {
                    return Some(true);
                }
            }
        }
        seen.then_some(false)
    }

    /// One store write, as drawn by proptest: a key, a recorded history
    /// `(site, threads, time)`, and how the text reaches the store.
    #[derive(Clone, Debug)]
    struct Write {
        workload: usize,
        nodes: usize,
        recs: Vec<(u64, usize, f64)>,
        /// 0: `save`; 1: `save_raw` of the rendered text; 2: `save_raw` of
        /// the fault layer's corruption of it.
        how: u8,
        seed: u64,
    }

    fn write_strategy() -> impl proptest::strategy::Strategy<Value = Write> {
        use proptest::prelude::*;
        (
            0usize..3,
            1usize..=4,
            proptest::collection::vec((0u64..4, 1usize..=40, 1.0f64..1e6), 0..12),
            0u8..3,
            any::<u64>(),
        )
            .prop_map(|(workload, nodes, recs, how, seed)| Write {
                workload,
                nodes,
                recs,
                how,
                seed,
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Across random save/save_raw sequences — corrupted text, empty
        /// tables, repeated writes to one key — the memoized hint equals
        /// the re-parsing reference after every write.
        #[test]
        fn memoized_hungry_hint_matches_reparsing(
            writes in proptest::collection::vec(write_strategy(), 1..24),
        ) {
            use ilan_faults::{FaultConfig, FaultPlan};
            const WORKLOADS: [Workload; 3] = [Workload::Cg, Workload::Sp, Workload::Matmul];
            let mut store = PttStore::default();
            for w in &writes {
                let mut ptt = Ptt::new();
                for &(site, threads, time_ns) in &w.recs {
                    ptt.record(
                        ilan::SiteId::new(site),
                        threads,
                        ilan_topology::NodeMask::first_n(1),
                        ilan::StealPolicy::Strict,
                        &ilan::TaskloopReport::synthetic(time_ns, threads),
                    );
                }
                let workload = WORKLOADS[w.workload];
                match w.how {
                    0 => store.save(workload, w.nodes, &ptt),
                    1 => store.save_raw(workload, w.nodes, ptt.save_text()),
                    _ => {
                        let plan = FaultPlan::new(
                            w.seed,
                            8,
                            2,
                            FaultConfig { ptt_corruption_denom: 1, ..FaultConfig::none() },
                        );
                        store.save_raw(workload, w.nodes, plan.corrupt_text(&ptt.save_text()));
                    }
                }
                for workload in WORKLOADS {
                    for cores_per_node in [1, 2, 4, 8, 16] {
                        proptest::prop_assert_eq!(
                            store.hungry_hint(workload, cores_per_node),
                            reparsed_hungry_hint(&store, workload, cores_per_node),
                        );
                    }
                }
            }
        }
    }
}
