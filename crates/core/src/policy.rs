//! The policy abstraction and the paper's comparison baselines.

use crate::report::TaskloopReport;
use crate::site::SiteId;
use crate::Decision;

/// A scheduling policy: decides a configuration for each taskloop
/// invocation and learns from the resulting report.
///
/// Policies are pure state machines — they never execute anything. The
/// drivers in [`crate::driver`] connect a policy to an execution backend.
pub trait Policy {
    /// Chooses the configuration for the next invocation of `site`.
    fn decide(&mut self, site: SiteId) -> Decision;

    /// Feeds back the measured outcome of an invocation that ran under
    /// `decision`.
    fn record(&mut self, site: SiteId, decision: &Decision, report: &TaskloopReport);

    /// Short human-readable name for harness output.
    fn name(&self) -> &'static str;

    /// Time the policy spends making one decision, charged to the critical
    /// path by the drivers (ILAN's configuration-selection cost; zero for
    /// the baselines).
    fn decision_overhead_ns(&self) -> f64 {
        0.0
    }
}

/// The default LLVM-style tasking scheduler: flat queue, all workers, random
/// placement. The paper's baseline.
#[derive(Debug, Default, Clone)]
pub struct BaselinePolicy;

impl Policy for BaselinePolicy {
    fn decide(&mut self, _site: SiteId) -> Decision {
        Decision::Flat
    }

    fn record(&mut self, _site: SiteId, _decision: &Decision, _report: &TaskloopReport) {}

    fn name(&self) -> &'static str {
        "baseline"
    }
}

/// OpenMP `for schedule(static)` work-sharing (paper §5.6 comparison).
#[derive(Debug, Default, Clone)]
pub struct WorkSharingPolicy;

impl Policy for WorkSharingPolicy {
    fn decide(&mut self, _site: SiteId) -> Decision {
        Decision::WorkSharing
    }

    fn record(&mut self, _site: SiteId, _decision: &Decision, _report: &TaskloopReport) {}

    fn name(&self) -> &'static str {
        "worksharing"
    }
}

/// Always returns one fixed decision. Useful for sweeps and ablations
/// ("what if every loop ran with 24 threads on nodes {0,1,2}?").
#[derive(Debug, Clone)]
pub struct FixedPolicy {
    decision: Decision,
}

impl FixedPolicy {
    /// A policy that always decides `decision`.
    pub fn new(decision: Decision) -> Self {
        FixedPolicy { decision }
    }
}

impl Policy for FixedPolicy {
    fn decide(&mut self, _site: SiteId) -> Decision {
        self.decision.clone()
    }

    fn record(&mut self, _site: SiteId, _decision: &Decision, _report: &TaskloopReport) {}

    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilan_runtime::StealPolicy;
    use ilan_topology::NodeMask;

    #[test]
    fn baseline_always_flat() {
        let mut p = BaselinePolicy;
        for i in 0..5 {
            assert_eq!(p.decide(SiteId::new(i)), Decision::Flat);
        }
        assert_eq!(p.decision_overhead_ns(), 0.0);
        assert_eq!(p.name(), "baseline");
    }

    #[test]
    fn worksharing_always_static() {
        let mut p = WorkSharingPolicy;
        assert_eq!(p.decide(SiteId::new(0)), Decision::WorkSharing);
    }

    #[test]
    fn fixed_returns_its_decision() {
        let d = Decision::Hierarchical {
            threads: 24,
            mask: NodeMask::first_n(3),
            strict_fraction: 0.5,
            policy: StealPolicy::Full,
        };
        let mut p = FixedPolicy::new(d.clone());
        assert_eq!(p.decide(SiteId::new(7)), d);
        // record is a no-op but must not panic.
        p.record(SiteId::new(7), &d, &TaskloopReport::synthetic(1.0, 24));
    }
}
