//! A tenant: one admitted job driving its own ILAN scheduler inside its
//! partition, one taskloop invocation at a time, on a [`ColoMachine`] lane.
//!
//! The tenant mirrors the single-application driver
//! (`ilan::driver::run_sim_invocation`) on the colocation engine: per
//! invocation it asks its scheduler for a decision, resolves the active
//! cores and placement plan, and submits the loop with a serial *lead* —
//! the decision cost, plus the program's serial section at timestep
//! boundaries. On completion it feeds the normalized report back into the
//! scheduler, so the moldability search and steal trial run exactly as they
//! would alone — just confined to the tenant's partition and priced against
//! whatever the other tenants are doing to the memory system.

use crate::job::JobSpec;
use ilan::driver::sim_placement;
use ilan::ptt::Ptt;
use ilan::{Decision, IlanParams, IlanScheduler, Policy, SiteId, TaskloopReport};
use ilan_numasim::{ColoMachine, LoopOutcome};
use ilan_topology::{NodeMask, Topology};
use ilan_trace::{Event, EventKind, EventLog, DISPATCHER};
use ilan_workloads::{Scale, SimApp};

/// Remaps an application built for the whole machine into `partition`: the
/// blocked first-touch layout lands on the partition's nodes (the tenant's
/// allocator touches pages from inside its cpuset) and the data masks
/// shrink to the partition. The identity when `partition` is the whole
/// machine.
pub fn confine_app(mut app: SimApp, topo: &Topology, partition: NodeMask) -> SimApp {
    let nodes: Vec<_> = partition.iter().collect();
    let n = topo.num_nodes();
    let k = nodes.len();
    assert!(k > 0, "partition must contain at least one node");
    for site in &mut app.sites {
        for t in &mut site.tasks {
            t.home_node = nodes[t.home_node.index() * k / n];
            t.data_mask = partition;
        }
    }
    app
}

/// One admitted job executing on the shared machine (see module docs).
pub struct Tenant {
    /// The job being served.
    pub job: JobSpec,
    /// The tenant's node partition.
    pub partition: NodeMask,
    /// Demand class the admission controller assigned.
    pub hungry: bool,
    /// Whether the scheduler was warm-started from a stored PTT.
    pub warm_started: bool,
    /// Machine time of admission, ns.
    pub admitted_ns: f64,
    /// The tenant's [`ColoMachine`] lane.
    pub lane: usize,
    topo: Topology,
    app: SimApp,
    sched: IlanScheduler,
    /// Flat index of the next invocation in `0..steps × schedule.len()`.
    next_invocation: usize,
    /// The in-flight invocation's site and decision.
    in_flight: Option<(SiteId, Decision)>,
    /// Failed attempts of the current invocation (reset on success).
    attempt: u32,
    /// Total injected loop failures retried across the job.
    pub retries: u32,
    /// Serial-section part of the in-flight lead (subtracted from the
    /// recorded time so the PTT sees loop time, as the single-loop driver's
    /// PTT does).
    serial_lead_ns: f64,
    /// Accumulated scheduling overhead across the job, ns.
    pub sched_overhead_ns: f64,
    /// Merged scheduler event log across invocations, when tracing. Each
    /// [`EventKind::ExplorationDecision`] marks one invocation's decision;
    /// the lane's per-invocation events follow on the machine-global clock.
    trace: Option<EventLog>,
    /// Sequence counter for the tenant's own dispatcher-level events.
    trace_seq: u64,
}

impl Tenant {
    /// Admits `job` into `partition` on `lane`. `warm` is a previously
    /// saved PTT for this (workload, partition size), if the server has
    /// one; the scheduler then starts settled and skips its search.
    #[allow(clippy::too_many_arguments)] // admission-time facts, used once
    pub fn new(
        job: JobSpec,
        partition: NodeMask,
        hungry: bool,
        topo: &Topology,
        scale: Scale,
        warm: Option<Ptt>,
        lane: usize,
        admitted_ns: f64,
    ) -> Self {
        let mut app = confine_app(job.workload.sim_app(topo, scale), topo, partition);
        app.steps = job.steps;
        let params = IlanParams::for_topology(topo).restrict_to(partition);
        let warm_started = warm.is_some();
        let sched = match warm {
            Some(ptt) => IlanScheduler::with_warm_ptt(params, ptt),
            None => IlanScheduler::new(params),
        };
        Tenant {
            job,
            partition,
            hungry,
            warm_started,
            admitted_ns,
            lane,
            topo: topo.clone(),
            app,
            sched,
            next_invocation: 0,
            in_flight: None,
            attempt: 0,
            retries: 0,
            serial_lead_ns: 0.0,
            sched_overhead_ns: 0.0,
            trace: None,
            trace_seq: 0,
        }
    }

    /// Starts collecting a merged scheduler event log for this tenant. The
    /// caller must also turn on lane tracing on the machine
    /// ([`ColoMachine::set_tracing`]) so completions carry events; the tenant
    /// contributes its own [`EventKind::ExplorationDecision`] marker per
    /// invocation either way.
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(EventLog::default());
        }
    }

    /// The merged event log collected so far, when tracing is enabled.
    /// Sequence numbers restart per invocation, so this merged view is for
    /// export and aggregate queries (steal matrix, Chrome trace) — audit
    /// each invocation's [`LoopOutcome::events`] individually.
    pub fn trace(&self) -> Option<&EventLog> {
        self.trace.as_ref()
    }

    /// Total invocations the job runs.
    pub fn total_invocations(&self) -> usize {
        self.app.steps * self.app.schedule.len()
    }

    /// The tenant's scheduler (for PTT harvest at job completion).
    pub fn scheduler(&self) -> &IlanScheduler {
        &self.sched
    }

    /// Flat index of the invocation currently in flight (or next to start).
    pub fn invocation_index(&self) -> usize {
        self.next_invocation
    }

    /// Failed attempts of the current invocation so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Submits the next invocation on the tenant's lane.
    ///
    /// # Panics
    /// Panics if an invocation is already in flight or the job is done.
    pub fn start_next(&mut self, machine: &mut ColoMachine) {
        assert!(self.in_flight.is_none(), "invocation already in flight");
        let idx = self.next_invocation;
        assert!(idx < self.total_invocations(), "job already finished");
        let site_idx = self.app.schedule[idx % self.app.schedule.len()];
        let site = SiteId::new(site_idx as u64);
        let decision = self.sched.decide(site);
        let tasks = self.app.sites[site_idx].tasks.clone();
        // Flat / work-sharing decisions span the tenant's partition.
        let (cores, plan) = sim_placement(&self.topo, &decision, self.partition, tasks.len());
        // The program's serial section runs between timesteps.
        let serial = if idx > 0 && idx.is_multiple_of(self.app.schedule.len()) {
            self.app.serial_ns
        } else {
            0.0
        };
        self.serial_lead_ns = serial;
        let lead = self.sched.decision_overhead_ns() + serial;
        if let Some(log) = &mut self.trace {
            let threads = decision.threads().unwrap_or(cores.count()) as u32;
            log.push_event(Event {
                seq: self.trace_seq,
                worker: DISPATCHER,
                node: self.partition.iter().next().map_or(0, |n| n.index()) as u32,
                time_ns: machine.now_ns() as u64,
                kind: EventKind::ExplorationDecision {
                    site: site.raw(),
                    threads,
                },
            });
            self.trace_seq += 1;
        }
        machine.start_loop(self.lane, &cores, &plan, tasks, lead);
        self.in_flight = Some((site, decision));
    }

    /// Discards the in-flight invocation's outcome — an injected loop
    /// failure — and resubmits the *same* invocation with an exponential
    /// backoff lead (`backoff_ns × 2^(attempt-1)`). The scheduler neither
    /// records the failed attempt nor re-decides: the decision that was in
    /// flight is retried verbatim, so the PTT and exploration state see
    /// exactly the sequence a fault-free run would.
    ///
    /// # Panics
    /// Panics if no invocation is in flight.
    pub fn retry_current(&mut self, machine: &mut ColoMachine, backoff_ns: f64) {
        let (site, decision) = self
            .in_flight
            .take()
            .expect("retry without an in-flight invocation");
        self.attempt += 1;
        self.retries += 1;
        let idx = self.next_invocation;
        let site_idx = self.app.schedule[idx % self.app.schedule.len()];
        let tasks = self.app.sites[site_idx].tasks.clone();
        let (cores, plan) = sim_placement(&self.topo, &decision, self.partition, tasks.len());
        let lead = backoff_ns * 2f64.powi(self.attempt as i32 - 1);
        // Strip the backoff from the eventual recorded time the same way the
        // serial section is stripped: the PTT must see loop time, not the
        // retry policy.
        self.serial_lead_ns = lead;
        machine.start_loop(self.lane, &cores, &plan, tasks, lead);
        self.in_flight = Some((site, decision));
    }

    /// Feeds a completed invocation back into the scheduler. Returns `true`
    /// when the job has run all its invocations.
    pub fn on_completion(&mut self, outcome: &LoopOutcome) -> bool {
        let (site, decision) = self
            .in_flight
            .take()
            .expect("completion without an in-flight invocation");
        if let Some(log) = &mut self.trace {
            log.merge(&outcome.events);
        }
        let mut report = TaskloopReport::from(outcome);
        // The colo makespan spans submission to barrier, so it already
        // includes the decision cost; strip only the serial section so the
        // PTT records decision + dispatch + loop, as the single-loop driver
        // does. Overhead accounting gains the decision cost the same way.
        report.time_ns = (report.time_ns - self.serial_lead_ns).max(0.0);
        report.sched_overhead_ns += self.sched.decision_overhead_ns();
        self.sched_overhead_ns += report.sched_overhead_ns;
        self.sched.record(site, &decision, &report);
        self.next_invocation += 1;
        self.attempt = 0;
        self.next_invocation >= self.total_invocations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobPriority;
    use ilan_numasim::MachineParams;
    use ilan_topology::{presets, NodeId};
    use ilan_workloads::Workload;

    fn job(workload: Workload, steps: usize) -> JobSpec {
        JobSpec {
            id: 0,
            workload,
            steps,
            priority: JobPriority::Normal,
            arrival_ns: 0.0,
        }
    }

    #[test]
    fn confine_remaps_homes_into_partition() {
        let t = presets::epyc_9354_2s();
        let app = Workload::Cg.sim_app(&t, Scale::Quick);
        let part = NodeMask::from_bits(0b1100_0000); // nodes 6, 7
        let confined = confine_app(app, &t, part);
        for site in &confined.sites {
            for task in &site.tasks {
                assert!(part.contains(task.home_node), "home escaped partition");
                assert_eq!(task.data_mask, part);
            }
        }
        // Both partition nodes receive data (blocked layout preserved).
        let homes: std::collections::HashSet<usize> = confined.sites[0]
            .tasks
            .iter()
            .map(|t| t.home_node.index())
            .collect();
        assert!(homes.contains(&6) && homes.contains(&7));
    }

    #[test]
    fn confine_full_machine_is_identity() {
        let t = presets::tiny_2x4();
        let app = Workload::Matmul.sim_app(&t, Scale::Quick);
        let before: Vec<NodeId> = app.sites[0].tasks.iter().map(|t| t.home_node).collect();
        let confined = confine_app(app, &t, t.all_nodes());
        let after: Vec<NodeId> = confined.sites[0]
            .tasks
            .iter()
            .map(|t| t.home_node)
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn tenant_runs_a_job_to_completion() {
        let t = presets::tiny_2x4();
        let mut machine = ColoMachine::new(MachineParams::for_topology(&t).noiseless(), 5);
        let lane = machine.add_lane();
        let mut tenant = Tenant::new(
            job(Workload::Matmul, 2),
            t.all_nodes(),
            false,
            &t,
            Scale::Quick,
            None,
            lane,
            0.0,
        );
        let total = tenant.total_invocations();
        assert!(total >= 2);
        tenant.start_next(&mut machine);
        let mut completed = 0;
        loop {
            let (l, outcome) = machine.run_until_next_completion().expect("loop in flight");
            assert_eq!(l, lane);
            completed += 1;
            if tenant.on_completion(&outcome) {
                break;
            }
            tenant.start_next(&mut machine);
        }
        assert_eq!(completed, total);
        assert!(machine.now_ns() > 0.0);
        assert!(tenant.sched_overhead_ns > 0.0);
        // The scheduler saw every invocation.
        let recorded: u64 = tenant
            .scheduler()
            .ptt()
            .site_ids()
            .iter()
            .map(|&s| tenant.scheduler().ptt().invocations(s))
            .sum();
        assert_eq!(recorded as usize, total);
    }

    #[test]
    fn confined_tenant_never_leaves_partition() {
        let t = presets::epyc_9354_2s();
        let part = NodeMask::from_bits(0b0000_1111); // socket 0
        let mut machine = ColoMachine::new(MachineParams::for_topology(&t).noiseless(), 9);
        let lane = machine.add_lane();
        let mut tenant = Tenant::new(
            job(Workload::Cg, 1),
            part,
            true,
            &t,
            Scale::Quick,
            None,
            lane,
            0.0,
        );
        tenant.start_next(&mut machine);
        loop {
            let (_, outcome) = machine.run_until_next_completion().unwrap();
            // No chunk may execute on a node outside the partition.
            for (i, n) in outcome.nodes.iter().enumerate() {
                if !part.contains(NodeId::new(i)) {
                    assert_eq!(n.tasks, 0, "node {i} outside partition executed work");
                }
            }
            if tenant.on_completion(&outcome) {
                break;
            }
            tenant.start_next(&mut machine);
        }
    }

    #[test]
    fn traced_tenant_logs_decisions_and_stays_in_partition() {
        use ilan_trace::{audit, AuditExpect, NodeTally};

        let t = presets::tiny_2x4();
        let part = NodeMask::from_bits(0b01); // node 0 only
        let mut machine = ColoMachine::new(MachineParams::for_topology(&t).noiseless(), 3);
        machine.set_tracing(true);
        let lane = machine.add_lane();
        let mut tenant = Tenant::new(
            job(Workload::Matmul, 2),
            part,
            false,
            &t,
            Scale::Quick,
            None,
            lane,
            0.0,
        );
        tenant.enable_tracing();
        let total = tenant.total_invocations();
        tenant.start_next(&mut machine);
        let mut invocations = 0;
        loop {
            let (_, outcome) = machine.run_until_next_completion().unwrap();
            invocations += 1;
            // Each invocation's event log audits clean on its own.
            let expect = AuditExpect {
                migrations: Some(outcome.migrations),
                latch_releases: Some(outcome.threads),
                per_node: Some(
                    outcome
                        .nodes
                        .iter()
                        .map(|n| NodeTally {
                            tasks: n.tasks,
                            local_tasks: None,
                        })
                        .collect(),
                ),
            };
            let report = audit(&outcome.events, &expect);
            assert!(report.ok(), "invocation audit failed: {report}");
            if tenant.on_completion(&outcome) {
                break;
            }
            tenant.start_next(&mut machine);
        }
        assert_eq!(invocations, total);

        let log = tenant.trace().expect("tracing enabled");
        // One decision marker per invocation, each naming a real site.
        let decisions: Vec<_> = log
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ExplorationDecision { site, threads } => Some((site, threads)),
                _ => None,
            })
            .collect();
        assert_eq!(decisions.len(), total);
        assert!(decisions.iter().all(|&(_, threads)| threads > 0));
        // No chunk ever started on a node outside the partition.
        for e in log.iter() {
            if let EventKind::ChunkStart { .. } = e.kind {
                assert!(
                    part.contains(NodeId::new(e.node as usize)),
                    "chunk started outside partition on node {}",
                    e.node
                );
            }
        }
        // The merged log carries real per-invocation scheduler activity.
        assert!(log
            .iter()
            .any(|e| matches!(e.kind, EventKind::ChunkEnqueue { .. })));
        assert!(log.len() > total);
    }
}
