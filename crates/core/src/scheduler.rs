//! The ILAN scheduler: moldable thread-count search, node-mask selection and
//! steal-policy trial, per taskloop site.
//!
//! The per-site lifecycle is:
//!
//! ```text
//! invocation 1:  m_max threads, all nodes, strict      (priming)
//! invocation 2:  m_max/2 threads, best-seeded mask, strict  (priming)
//! invocation 3+: Algorithm 1 exploration, strict            (Searching)
//! search done:   one invocation with steal_policy = full    (StealTrial)
//! afterwards:    the winning configuration forever          (Settled)
//! ```
//!
//! With moldability disabled (the paper's Figure 4 ablation) the search is
//! skipped: the thread count stays at `m_max` and only the hierarchical
//! distribution and the steal-policy trial remain.

use crate::algorithm1::{select_threads, SelectionInput};
use crate::metrics::SchedulerMetrics;
use crate::nodemask::select_mask_within;
use crate::policy::Policy;
use crate::ptt::Ptt;
use crate::report::TaskloopReport;
use crate::site::SiteId;
use crate::Decision;
use ilan_runtime::StealPolicy;
use ilan_topology::{NodeMask, Topology};
use std::collections::HashMap;

/// Tuning parameters of the ILAN scheduler.
#[derive(Clone, Debug)]
pub struct IlanParams {
    /// Machine description.
    pub topology: Topology,
    /// Thread-count granularity `g`. The paper sets it to the NUMA node
    /// size; any value in `1..=m_max/2` is valid (§3.5).
    pub granularity: usize,
    /// Fraction of each node's chunks that are NUMA-strict under the `full`
    /// steal policy (the stealable tail is `1 − strict_fraction`).
    pub strict_fraction: f64,
    /// Whether the moldability search runs. `false` reproduces the paper's
    /// "ILAN without moldability" ablation (Figure 4): all cores always.
    pub moldability: bool,
    /// Whether the post-search `full`-policy trial runs. When disabled the
    /// policy stays `strict` forever.
    pub steal_trial: bool,
    /// Cost of one configuration selection, charged to the critical path by
    /// the drivers.
    pub decision_cost_ns: f64,
    /// What the search minimizes. The paper uses wall time; the PTT can
    /// equally drive energy-oriented selection (§3.5).
    pub objective: crate::Objective,
    /// The NUMA partition this scheduler may use. Defaults to the whole
    /// machine; a multi-tenant co-scheduler (`ilan-server`) confines each
    /// tenant to a disjoint partition. All thread counts, masks and the
    /// moldability search operate within this partition.
    pub allowed_mask: NodeMask,
}

impl IlanParams {
    /// Defaults for a topology: `g` = NUMA node size (clamped to
    /// `1..=m_max/2`), a half-stealable tail, moldability and the steal
    /// trial enabled.
    pub fn for_topology(topology: &Topology) -> Self {
        let m_max = topology.num_cores();
        let granularity = topology.cores_per_node().clamp(1, (m_max / 2).max(1));
        IlanParams {
            topology: topology.clone(),
            granularity,
            strict_fraction: 0.5,
            moldability: true,
            steal_trial: true,
            decision_cost_ns: 800.0,
            objective: crate::Objective::default(),
            allowed_mask: topology.all_nodes(),
        }
    }

    /// The Figure-4 ablation: hierarchical scheduling only, all cores.
    pub fn no_moldability(topology: &Topology) -> Self {
        IlanParams {
            moldability: false,
            ..Self::for_topology(topology)
        }
    }

    /// Overrides the granularity (builder style).
    pub fn granularity(mut self, g: usize) -> Self {
        assert!(g >= 1, "granularity must be at least 1");
        self.granularity = g;
        self
    }

    /// Overrides the strict fraction (builder style).
    pub fn strict_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "strict_fraction must be in [0,1]");
        self.strict_fraction = f;
        self
    }

    /// Disables the steal-policy trial (builder style).
    pub fn without_steal_trial(mut self) -> Self {
        self.steal_trial = false;
        self
    }

    /// Selects the optimization objective (builder style).
    pub fn objective(mut self, objective: crate::Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Confines the scheduler to a NUMA partition (builder style). The
    /// granularity is re-clamped to the partition size so the moldability
    /// search stays meaningful on small partitions.
    ///
    /// # Panics
    /// Panics if `mask` is empty or references nodes outside the topology.
    pub fn restrict_to(mut self, mask: NodeMask) -> Self {
        assert!(!mask.is_empty(), "partition must contain at least one node");
        assert!(
            mask.is_subset(self.topology.all_nodes()),
            "partition references nodes outside the topology"
        );
        self.allowed_mask = mask;
        let m_max = self.partition_cores();
        self.granularity = self.topology.cores_per_node().clamp(1, (m_max / 2).max(1));
        self
    }

    /// Number of cores in the scheduler's partition.
    pub fn partition_cores(&self) -> usize {
        self.allowed_mask.count() * self.topology.cores_per_node()
    }
}

/// Where a site is in its configuration lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchPhase {
    /// Still exploring thread counts (includes the two priming runs).
    Searching,
    /// Thread count fixed; evaluating `steal_policy = full` for one run.
    StealTrial,
    /// Configuration frozen.
    Settled,
}

#[derive(Clone, Debug)]
struct SiteState {
    phase: SearchPhase,
    /// The decision the next invocation will use.
    next: Decision,
    /// Mean time of the best strict configuration at search completion
    /// (compared against the full-policy trial).
    strict_best_ns: f64,
}

/// The ILAN scheduler (see crate docs).
pub struct IlanScheduler {
    params: IlanParams,
    ptt: Ptt,
    sites: HashMap<SiteId, SiteState>,
    metrics: Option<SchedulerMetrics>,
    /// Sites seeded Settled by [`with_warm_ptt`](Self::with_warm_ptt),
    /// reported to the metrics layer when one is attached.
    warm_sites: usize,
}

impl IlanScheduler {
    /// Creates a scheduler.
    ///
    /// # Panics
    /// Panics if `granularity` is 0 or exceeds the core count.
    pub fn new(params: IlanParams) -> Self {
        assert!(params.granularity >= 1, "granularity must be at least 1");
        assert!(
            !params.allowed_mask.is_empty(),
            "partition must contain at least one node"
        );
        assert!(
            params.allowed_mask.is_subset(params.topology.all_nodes()),
            "partition references nodes outside the topology"
        );
        assert!(
            params.granularity <= params.partition_cores(),
            "granularity exceeds machine size"
        );
        IlanScheduler {
            params,
            ptt: Ptt::new(),
            sites: HashMap::new(),
            metrics: None,
            warm_sites: 0,
        }
    }

    /// Creates a scheduler warm-started from a previously saved PTT
    /// (see [`Ptt::save_text`] / [`Ptt::load_text`]).
    ///
    /// Every site in `ptt` with at least one recorded configuration starts
    /// [`Settled`](SearchPhase::Settled) at its fastest configuration —
    /// thread count clamped to the current partition — skipping the priming
    /// runs, the Algorithm-1 search and the steal trial entirely. Sites not
    /// in the table behave as with [`new`](Self::new).
    pub fn with_warm_ptt(params: IlanParams, ptt: Ptt) -> Self {
        let mut s = IlanScheduler::new(params);
        s.ptt = ptt;
        for site in s.ptt.site_ids() {
            let Some(table) = s.ptt.site(site) else {
                continue;
            };
            let Some(best) = table.fastest() else {
                continue;
            };
            let threads = s.quantize(best.threads.min(s.m_max()));
            let steal = best.steal;
            let strict_best_ns = best.time.mean();
            let next = s.hierarchical(site, threads, steal);
            s.sites.insert(
                site,
                SiteState {
                    phase: SearchPhase::Settled,
                    next,
                    strict_best_ns,
                },
            );
        }
        s.warm_sites = s.sites.len();
        s
    }

    /// Attaches scheduler instruments. Warm-started sites are reported
    /// immediately and the phase gauges are initialized from the current
    /// site census; all later `decide`/`record` calls keep them current.
    pub fn attach_metrics(&mut self, metrics: SchedulerMetrics) {
        metrics.note_warm_sites(self.warm_sites);
        self.metrics = Some(metrics);
        self.update_phase_gauges();
    }

    /// The attached instruments, if any.
    pub fn metrics(&self) -> Option<&SchedulerMetrics> {
        self.metrics.as_ref()
    }

    /// Recounts sites per phase into the lifecycle gauges. O(sites) — the
    /// census is recomputed rather than maintained incrementally so the
    /// gauges cannot drift from the `sites` map.
    fn update_phase_gauges(&self) {
        let Some(m) = &self.metrics else { return };
        let (mut searching, mut trial, mut settled) = (0, 0, 0);
        for s in self.sites.values() {
            match s.phase {
                SearchPhase::Searching => searching += 1,
                SearchPhase::StealTrial => trial += 1,
                SearchPhase::Settled => settled += 1,
            }
        }
        m.set_phase_counts(searching, trial, settled);
    }

    /// Read access to the Performance Trace Table.
    pub fn ptt(&self) -> &Ptt {
        &self.ptt
    }

    /// The scheduler's parameters.
    pub fn params(&self) -> &IlanParams {
        &self.params
    }

    /// The lifecycle phase of `site` (Searching before any invocation).
    pub fn phase(&self, site: SiteId) -> SearchPhase {
        self.sites
            .get(&site)
            .map_or(SearchPhase::Searching, |s| s.phase)
    }

    /// The settled configuration of `site`, if its search has finished.
    pub fn settled_decision(&self, site: SiteId) -> Option<&Decision> {
        self.sites
            .get(&site)
            .filter(|s| s.phase == SearchPhase::Settled)
            .map(|s| &s.next)
    }

    fn m_max(&self) -> usize {
        self.params.partition_cores()
    }

    /// A decision's thread count; the whole partition for a flat or
    /// work-sharing one.
    fn threads_of(&self, decision: &Decision) -> usize {
        match decision {
            Decision::Hierarchical { threads, .. } => *threads,
            Decision::Flat | Decision::WorkSharing => self.m_max(),
        }
    }

    /// Thread count rounded down to a positive multiple of `g`.
    fn quantize(&self, threads: usize) -> usize {
        let g = self.params.granularity;
        (threads / g * g).max(g)
    }

    fn hierarchical(&self, site: SiteId, threads: usize, steal: StealPolicy) -> Decision {
        let mask = select_mask_within(
            &self.params.topology,
            self.params.allowed_mask,
            self.ptt.site(site),
            threads,
        );
        Decision::Hierarchical {
            threads,
            mask,
            strict_fraction: self.params.strict_fraction,
            policy: steal,
        }
    }

    fn initial_state(&self, site: SiteId) -> SiteState {
        SiteState {
            phase: SearchPhase::Searching,
            next: self.hierarchical(site, self.m_max(), StealPolicy::Strict),
            strict_best_ns: f64::INFINITY,
        }
    }

    /// Computes the state after recording invocation number `k` (1-based).
    fn transition(&self, site: SiteId, state: &SiteState, report: &TaskloopReport) -> SiteState {
        let k = self.ptt.invocations(site); // includes the one just recorded
        let table = self.ptt.site(site).expect("just recorded");

        match state.phase {
            SearchPhase::Searching => {
                if !self.params.moldability {
                    // No search: go straight to the steal trial (or settle).
                    return self.finish_search(site, self.m_max(), table.fastest_mean());
                }
                if k == 1 {
                    // Second priming run: half the machine. On machines so
                    // small that half quantizes back to the full machine
                    // (m_max == g), there is nothing to search.
                    let threads = self.quantize(self.m_max() / 2);
                    if threads == self.m_max() {
                        return self.finish_search(site, threads, table.fastest_mean());
                    }
                    return SiteState {
                        phase: SearchPhase::Searching,
                        next: self.hierarchical(site, threads, StealPolicy::Strict),
                        strict_best_ns: f64::INFINITY,
                    };
                }
                if table.entries().len() < 2 {
                    // Repeated configurations collapsed into one PTT entry
                    // (degenerate machines): accept it as the optimum.
                    let threads = table.fastest().map_or(self.m_max(), |e| e.threads);
                    return self.finish_search(site, threads, table.fastest_mean());
                }
                // Invocation k+1 is configured by Algorithm 1.
                let current_threads = self.threads_of(&state.next);
                let selection = select_threads(SelectionInput {
                    table,
                    current_threads,
                    k: k + 1,
                    granularity: self.params.granularity,
                    objective: self.params.objective,
                });
                if selection.search_finished {
                    let best_mean = table.fastest_mean();
                    self.finish_search(site, selection.threads, best_mean)
                } else {
                    SiteState {
                        phase: SearchPhase::Searching,
                        next: self.hierarchical(site, selection.threads, StealPolicy::Strict),
                        strict_best_ns: f64::INFINITY,
                    }
                }
            }
            SearchPhase::StealTrial => {
                // The report is the full-policy trial: keep whichever policy
                // scores better under the configured objective.
                let threads = self.threads_of(&state.next);
                let objective = self.params.objective;
                let steal = if objective.score(threads, report.time_ns)
                    < objective.score(threads, state.strict_best_ns)
                {
                    StealPolicy::Full
                } else {
                    StealPolicy::Strict
                };
                SiteState {
                    phase: SearchPhase::Settled,
                    next: self.hierarchical(site, threads, steal),
                    strict_best_ns: state.strict_best_ns,
                }
            }
            SearchPhase::Settled => state.clone(),
        }
    }

    fn finish_search(&self, site: SiteId, threads: usize, strict_best_ns: f64) -> SiteState {
        if self.params.steal_trial {
            SiteState {
                phase: SearchPhase::StealTrial,
                next: self.hierarchical(site, threads, StealPolicy::Full),
                strict_best_ns,
            }
        } else {
            SiteState {
                phase: SearchPhase::Settled,
                next: self.hierarchical(site, threads, StealPolicy::Strict),
                strict_best_ns,
            }
        }
    }
}

/// Helper on the PTT site table: mean time of the best configuration under
/// the time objective (the trial comparison rescales by the objective at
/// comparison time, so storing the raw time is sufficient).
trait FastestMean {
    fn fastest_mean(&self) -> f64;
}

impl FastestMean for crate::ptt::SiteTable {
    fn fastest_mean(&self) -> f64 {
        self.fastest().map_or(f64::INFINITY, |e| e.time.mean())
    }
}

impl Policy for IlanScheduler {
    fn decide(&mut self, site: SiteId) -> Decision {
        if let Some(m) = &self.metrics {
            let hit = matches!(self.sites.get(&site), Some(s) if s.phase == SearchPhase::Settled);
            m.note_decide(hit);
        }
        if !self.sites.contains_key(&site) {
            let st = self.initial_state(site);
            self.sites.insert(site, st);
            self.update_phase_gauges();
        }
        self.sites[&site].next.clone()
    }

    fn record(&mut self, site: SiteId, decision: &Decision, report: &TaskloopReport) {
        let (threads, mask, steal) = match decision {
            Decision::Hierarchical {
                threads,
                mask,
                policy,
                ..
            } => (*threads, *mask, *policy),
            // Reports for non-hierarchical decisions (not produced by this
            // policy) are still recorded against the full partition.
            _ => (self.m_max(), self.params.allowed_mask, StealPolicy::Strict),
        };
        self.ptt.record(site, threads, mask, steal, report);
        let state = self
            .sites
            .entry(site)
            .or_insert_with(|| SiteState {
                phase: SearchPhase::Searching,
                next: Decision::Flat, // replaced immediately below
                strict_best_ns: f64::INFINITY,
            })
            .clone();
        let new_state = self.transition(site, &state, report);
        self.sites.insert(site, new_state);
        if let Some(m) = &self.metrics {
            m.note_ptt_record();
        }
        self.update_phase_gauges();
    }

    fn name(&self) -> &'static str {
        if self.params.moldability {
            "ilan"
        } else {
            "ilan-nomold"
        }
    }

    fn decision_overhead_ns(&self) -> f64 {
        self.params.decision_cost_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilan_topology::presets;

    const SITE: SiteId = SiteId::new(0);

    /// A hierarchical decision's `(threads, mask, policy)`.
    fn triple(d: &Decision) -> (usize, NodeMask, StealPolicy) {
        match d {
            Decision::Hierarchical {
                threads,
                mask,
                policy,
                ..
            } => (*threads, *mask, *policy),
            other => panic!("not hierarchical: {other:?}"),
        }
    }

    fn scheduler() -> IlanScheduler {
        IlanScheduler::new(IlanParams::for_topology(&presets::epyc_9354_2s()))
    }

    /// Runs one decide/record round with a synthetic time.
    fn round(s: &mut IlanScheduler, time: f64) -> Decision {
        let d = s.decide(SITE);
        s.record(SITE, &d, &TaskloopReport::synthetic(time, triple(&d).0));
        d
    }

    #[test]
    fn priming_sequence() {
        let mut s = scheduler();
        let d1 = s.decide(SITE);
        assert_eq!(triple(&d1).0, 64);
        assert_eq!(triple(&d1).2, StealPolicy::Strict);
        assert_eq!(triple(&d1).1, presets::epyc_9354_2s().all_nodes());
        s.record(SITE, &d1, &TaskloopReport::synthetic(100.0, 64));
        let d2 = s.decide(SITE);
        assert_eq!(triple(&d2).0, 32);
        assert_eq!(triple(&d2).1.count(), 4);
    }

    #[test]
    fn memory_bound_search_settles_low() {
        // Faster with fewer threads: t(64)=100, t(32)=60, t(8)=40, t(16)=45.
        let mut s = scheduler();
        assert_eq!(triple(&round(&mut s, 100.0)).0, 64);
        assert_eq!(triple(&round(&mut s, 60.0)).0, 32);
        assert_eq!(triple(&round(&mut s, 40.0)).0, 8); // k=3 probes g
        assert_eq!(triple(&round(&mut s, 45.0)).0, 16); // midpoint
                                                        // Search finished at 8 threads → full-policy trial.
        let trial = s.decide(SITE);
        assert_eq!(s.phase(SITE), SearchPhase::StealTrial);
        assert_eq!(triple(&trial).0, 8);
        assert_eq!(triple(&trial).2, StealPolicy::Full);
        // Trial slower than strict best (40): keep strict.
        s.record(SITE, &trial, &TaskloopReport::synthetic(44.0, 8));
        assert_eq!(s.phase(SITE), SearchPhase::Settled);
        let settled = s.settled_decision(SITE).unwrap();
        assert_eq!(triple(settled).0, 8);
        assert_eq!(triple(settled).2, StealPolicy::Strict);
        // Settled decision is sticky.
        for _ in 0..5 {
            let d = round(&mut s, 40.0);
            assert_eq!(triple(&d).0, 8);
            assert_eq!(triple(&d).2, StealPolicy::Strict);
        }
    }

    #[test]
    fn compute_bound_search_keeps_full_machine() {
        // Faster with more threads: 64 wins.
        let mut s = scheduler();
        round(&mut s, 60.0); // 64
        round(&mut s, 100.0); // 32
        assert_eq!(triple(&round(&mut s, 75.0)).0, 48);
        assert_eq!(triple(&round(&mut s, 65.0)).0, 56);
        let trial = s.decide(SITE);
        assert_eq!(triple(&trial).0, 64);
        assert_eq!(triple(&trial).2, StealPolicy::Full);
        // Trial faster: keep full.
        s.record(SITE, &trial, &TaskloopReport::synthetic(55.0, 64));
        let settled = s.settled_decision(SITE).unwrap();
        assert_eq!(triple(settled).2, StealPolicy::Full);
    }

    #[test]
    fn no_moldability_skips_search() {
        let mut s = IlanScheduler::new(IlanParams::no_moldability(&presets::epyc_9354_2s()));
        let d1 = s.decide(SITE);
        assert_eq!(triple(&d1).0, 64);
        s.record(SITE, &d1, &TaskloopReport::synthetic(100.0, 64));
        // Straight to the steal trial.
        assert_eq!(s.phase(SITE), SearchPhase::StealTrial);
        let trial = s.decide(SITE);
        assert_eq!(triple(&trial).0, 64);
        assert_eq!(triple(&trial).2, StealPolicy::Full);
        s.record(SITE, &trial, &TaskloopReport::synthetic(90.0, 64));
        assert_eq!(s.phase(SITE), SearchPhase::Settled);
        assert_eq!(
            triple(s.settled_decision(SITE).unwrap()).2,
            StealPolicy::Full
        );
    }

    #[test]
    fn without_steal_trial_settles_strict() {
        let mut s = IlanScheduler::new(
            IlanParams::no_moldability(&presets::epyc_9354_2s()).without_steal_trial(),
        );
        let d = s.decide(SITE);
        s.record(SITE, &d, &TaskloopReport::synthetic(100.0, 64));
        assert_eq!(s.phase(SITE), SearchPhase::Settled);
        assert_eq!(
            triple(s.settled_decision(SITE).unwrap()).2,
            StealPolicy::Strict
        );
    }

    #[test]
    fn sites_are_independent() {
        let mut s = scheduler();
        let a = SiteId::new(1);
        let b = SiteId::new(2);
        let da = s.decide(a);
        s.record(a, &da, &TaskloopReport::synthetic(100.0, 64));
        // Site b still starts from scratch.
        assert_eq!(triple(&s.decide(b)).0, 64);
        // Site a has advanced.
        assert_eq!(triple(&s.decide(a)).0, 32);
    }

    #[test]
    fn small_machine_two_nodes() {
        // tiny_2x4: 8 cores, g = 4 = m_max/2.
        let topo = presets::tiny_2x4();
        let mut s = IlanScheduler::new(IlanParams::for_topology(&topo));
        assert_eq!(s.params().granularity, 4);
        let d1 = s.decide(SITE);
        assert_eq!(triple(&d1).0, 8);
        s.record(SITE, &d1, &TaskloopReport::synthetic(100.0, 8));
        let d2 = s.decide(SITE);
        assert_eq!(triple(&d2).0, 4);
        // Half machine faster → k=3 would probe g=4 == best → finished.
        s.record(SITE, &d2, &TaskloopReport::synthetic(50.0, 4));
        assert_eq!(s.phase(SITE), SearchPhase::StealTrial);
        let trial = s.decide(SITE);
        assert_eq!(triple(&trial).0, 4);
    }

    #[test]
    fn reduced_masks_follow_fastest_node() {
        let mut s = scheduler();
        let d1 = s.decide(SITE);
        // Node 5 is fastest in the priming run.
        let mut speeds = vec![0.5; 8];
        speeds[5] = 0.9;
        let report = TaskloopReport {
            node_speed: speeds,
            ..TaskloopReport::synthetic(100.0, 64)
        };
        s.record(SITE, &d1, &report);
        let d2 = s.decide(SITE);
        let mask = triple(&d2).1;
        assert!(mask.contains(ilan_topology::NodeId::new(5)));
        // 32 threads = 4 nodes, all on socket 1.
        assert_eq!(mask.count(), 4);
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn rejects_zero_granularity() {
        let p = IlanParams {
            granularity: 0,
            ..IlanParams::for_topology(&presets::tiny_2x4())
        };
        IlanScheduler::new(p);
    }

    #[test]
    fn warm_ptt_skips_search() {
        // Run a cold scheduler to Settled, then warm-start a fresh one from
        // its PTT: the first decision must already be the settled one.
        let mut cold = scheduler();
        round(&mut cold, 100.0);
        round(&mut cold, 60.0);
        round(&mut cold, 40.0);
        round(&mut cold, 45.0);
        let trial = cold.decide(SITE);
        cold.record(SITE, &trial, &TaskloopReport::synthetic(44.0, 8));
        assert_eq!(cold.phase(SITE), SearchPhase::Settled);
        let settled = cold.settled_decision(SITE).unwrap().clone();

        let warm = IlanScheduler::with_warm_ptt(
            IlanParams::for_topology(&presets::epyc_9354_2s()),
            cold.ptt().clone(),
        );
        assert_eq!(warm.phase(SITE), SearchPhase::Settled);
        let d = warm.settled_decision(SITE).unwrap();
        assert_eq!(triple(d).0, triple(&settled).0);
        // Unknown sites still search from scratch.
        assert_eq!(warm.phase(SiteId::new(99)), SearchPhase::Searching);
    }

    #[test]
    fn warm_ptt_round_trips_through_text() {
        let mut cold = scheduler();
        round(&mut cold, 100.0);
        round(&mut cold, 60.0);
        round(&mut cold, 40.0);
        round(&mut cold, 45.0);
        let trial = cold.decide(SITE);
        cold.record(SITE, &trial, &TaskloopReport::synthetic(44.0, 8));
        let text = cold.ptt().save_text();
        let warm = IlanScheduler::with_warm_ptt(
            IlanParams::for_topology(&presets::epyc_9354_2s()),
            crate::ptt::Ptt::load_text(&text).unwrap(),
        );
        assert_eq!(warm.phase(SITE), SearchPhase::Settled);
        assert_eq!(
            triple(warm.settled_decision(SITE).unwrap()).0,
            triple(cold.settled_decision(SITE).unwrap()).0
        );
    }

    #[test]
    fn warm_ptt_clamps_to_partition() {
        // The warm table settled at 64 threads on the full machine; a warm
        // scheduler confined to one socket must clamp to 32.
        let topo = presets::epyc_9354_2s();
        let mut cold = IlanScheduler::new(IlanParams::no_moldability(&topo));
        let d = cold.decide(SITE);
        cold.record(SITE, &d, &TaskloopReport::synthetic(100.0, 64));
        let trial = cold.decide(SITE);
        cold.record(SITE, &trial, &TaskloopReport::synthetic(90.0, 64));
        assert_eq!(triple(cold.settled_decision(SITE).unwrap()).0, 64);

        let socket1 = ilan_topology::NodeMask::from_bits(0b1111_0000);
        let warm = IlanScheduler::with_warm_ptt(
            IlanParams::for_topology(&topo).restrict_to(socket1),
            cold.ptt().clone(),
        );
        let d = warm.settled_decision(SITE).unwrap();
        assert_eq!(triple(d).0, 32);
        assert!(triple(d).1.is_subset(socket1));
    }

    #[test]
    fn restricted_scheduler_stays_in_partition() {
        let topo = presets::epyc_9354_2s();
        let socket1 = ilan_topology::NodeMask::from_bits(0b1111_0000);
        let mut s = IlanScheduler::new(IlanParams::for_topology(&topo).restrict_to(socket1));
        // Drive it through a full search with synthetic times; every decision
        // must stay inside the partition.
        for time in [100.0, 60.0, 40.0, 45.0, 44.0, 43.0, 42.0] {
            let d = s.decide(SITE);
            let (threads, mask, _) = triple(&d);
            assert!(threads <= 32, "threads {threads} exceed partition");
            assert!(mask.is_subset(socket1), "mask {mask:?} escapes partition");
            s.record(SITE, &d, &TaskloopReport::synthetic(time, threads));
        }
        // Priming starts at the partition size, not the machine size.
        let mut s2 = IlanScheduler::new(IlanParams::for_topology(&topo).restrict_to(socket1));
        assert_eq!(triple(&s2.decide(SiteId::new(5))).0, 32);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn rejects_empty_partition() {
        let topo = presets::tiny_2x4();
        IlanScheduler::new(
            IlanParams::for_topology(&topo).restrict_to(ilan_topology::NodeMask::EMPTY),
        );
    }

    #[test]
    fn metrics_track_lifecycle_and_decide_outcomes() {
        use crate::metrics::SchedulerMetrics;
        use ilan_metrics::SampleValue;

        let mut s = scheduler();
        s.attach_metrics(SchedulerMetrics::new());
        let m = s.metrics().unwrap().clone();
        let gauge = |phase: &str| match m
            .registry()
            .snapshot()
            .get_with("ilan_sched_sites", &[("phase", phase)])
        {
            Some(SampleValue::Gauge(v)) => *v,
            other => panic!("phase {phase}: {other:?}"),
        };
        let outcome = |o: &str| match m
            .registry()
            .snapshot()
            .get_with("ilan_sched_decide", &[("outcome", o)])
        {
            Some(SampleValue::Counter(v)) => *v,
            other => panic!("outcome {o}: {other:?}"),
        };

        // Drive the memory-bound search to Settled, checking the census.
        round(&mut s, 100.0);
        assert_eq!(gauge("searching"), 1);
        round(&mut s, 60.0);
        round(&mut s, 40.0);
        round(&mut s, 45.0);
        assert_eq!(gauge("steal_trial"), 1);
        let trial = s.decide(SITE);
        s.record(SITE, &trial, &TaskloopReport::synthetic(44.0, 8));
        assert_eq!(gauge("settled"), 1);
        assert_eq!(gauge("searching"), 0);
        // Every decide so far hit an unsettled site; the next one hits.
        assert_eq!(outcome("hit"), 0);
        let misses = outcome("miss");
        assert!(misses >= 5);
        s.decide(SITE);
        assert_eq!(outcome("hit"), 1);
        assert_eq!(outcome("miss"), misses);
        // Five reports went into the PTT: four search rounds plus the trial.
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter_total("ilan_sched_ptt_records"), 5);
        assert_eq!(snap.counter_total("ilan_sched_warm_started_sites"), 0);

        // A warm-started scheduler reports its seeded sites on attach.
        let mut warm = IlanScheduler::with_warm_ptt(
            IlanParams::for_topology(&presets::epyc_9354_2s()),
            s.ptt().clone(),
        );
        warm.attach_metrics(SchedulerMetrics::new());
        let wm = warm.metrics().unwrap().clone();
        let wsnap = wm.registry().snapshot();
        assert_eq!(wsnap.counter_total("ilan_sched_warm_started_sites"), 1);
        assert_eq!(
            wsnap.get_with("ilan_sched_sites", &[("phase", "settled")]),
            Some(&SampleValue::Gauge(1))
        );
        // The warm site's first decide is already a hit.
        warm.decide(SITE);
        assert_eq!(
            wm.registry().snapshot().counter_total("ilan_sched_decide"),
            1
        );
        match wm
            .registry()
            .snapshot()
            .get_with("ilan_sched_decide", &[("outcome", "hit")])
        {
            Some(SampleValue::Counter(1)) => {}
            other => panic!("warm decide must hit: {other:?}"),
        }
    }

    #[test]
    fn decision_overhead_reported() {
        let s = scheduler();
        assert!(s.decision_overhead_ns() > 0.0);
        assert_eq!(s.name(), "ilan");
        let s2 = IlanScheduler::new(IlanParams::no_moldability(&presets::tiny_2x4()));
        assert_eq!(s2.name(), "ilan-nomold");
    }
}
