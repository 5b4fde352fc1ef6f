//! Regeneration of every table and figure of the paper's evaluation.
//!
//! Each function renders one artifact from a [`Collection`] and returns the
//! text (also saving a CSV when `out` is given). Paper reference values are
//! printed alongside so the shape comparison is immediate.

use crate::collect::{Collection, Scheduler};
use crate::format::{bar, pct, Table};
use ilan::stats::distribution;
use ilan_workloads::Workload;
use std::path::Path;

/// The paper's Figure 2 speedups (ILAN vs baseline), for the shape columns.
fn paper_fig2(w: Workload) -> &'static str {
    match w {
        Workload::Ft => "+12.3%",
        Workload::Bt => "+16.9%",
        Workload::Cg => "+8.0%",
        Workload::Lu => "~+10%",
        Workload::Sp => "+45.8%",
        Workload::Matmul => "~-2%",
        Workload::Lulesh => "~+5%",
    }
}

/// The paper's Figure 3 average thread counts.
fn paper_fig3(w: Workload) -> &'static str {
    match w {
        Workload::Cg => "25",
        Workload::Sp => "reduced",
        _ => "64",
    }
}

/// The paper's Figure 4 (no-moldability) speedups.
fn paper_fig4(w: Workload) -> &'static str {
    match w {
        Workload::Cg => "-8.6%",
        Workload::Sp => "+ (below full ILAN)",
        _ => "≈ full ILAN",
    }
}

/// The paper's Table 1 standard deviations (baseline, ILAN).
fn paper_table1(w: Workload) -> (&'static str, &'static str) {
    match w {
        Workload::Ft => ("0.0117", "0.0037"),
        Workload::Bt => ("0.0133", "0.0197"),
        Workload::Cg => ("0.0094", "0.0239"),
        Workload::Lu => ("0.0169", "0.0045"),
        Workload::Sp => ("0.0554", "0.0258"),
        Workload::Matmul => ("0.0050", "0.0158"),
        Workload::Lulesh => ("0.0065", "0.0074"),
    }
}

/// Figure 2: normalized speedup of ILAN vs the baseline, with run-to-run
/// variation over the collection's seeds.
pub fn fig2(c: &Collection, out: Option<&Path>) -> String {
    let mut t = Table::new(
        "Figure 2 — ILAN speedup over default work-stealing baseline",
        &[
            "bench",
            "baseline(s)",
            "ilan(s)",
            "speedup",
            "base ±sd",
            "ilan ±sd",
            "paper",
            "",
        ],
    );
    let mut ratios = Vec::new();
    let mut rows = Vec::new();
    for &w in &c.workloads {
        let base = distribution(&c.wall_times(w, Scheduler::Baseline));
        let ilan = distribution(&c.wall_times(w, Scheduler::Ilan));
        let speedup = base.mean / ilan.mean;
        ratios.push(speedup);
        rows.push((w, base, ilan, speedup));
    }
    let max_gain = ratios.iter().fold(0.02f64, |a, r| a.max(r - 1.0));
    for (w, base, ilan, speedup) in rows {
        t.row(vec![
            w.name().into(),
            format!("{:.4}", base.mean),
            format!("{:.4}", ilan.mean),
            pct(speedup),
            format!("{:.4}", base.stddev),
            format!("{:.4}", ilan.stddev),
            paper_fig2(w).into(),
            bar(speedup - 1.0, max_gain, 18),
        ]);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    t.row(vec![
        "average".into(),
        String::new(),
        String::new(),
        pct(avg),
        String::new(),
        String::new(),
        "+13.2%".into(),
        String::new(),
    ]);
    t.row(vec![
        "max".into(),
        String::new(),
        String::new(),
        pct(max),
        String::new(),
        String::new(),
        "+45.8%".into(),
        String::new(),
    ]);
    if let Some(dir) = out {
        t.save_csv(dir, "fig2_speedup");
    }
    t.render()
}

/// Figure 3: time-weighted average thread count selected by ILAN.
pub fn fig3(c: &Collection, out: Option<&Path>) -> String {
    let cores = c.machine_cores as f64;
    let mut t = Table::new(
        &format!(
            "Figure 3 — weighted average threads selected by ILAN (of {})",
            c.machine_cores
        ),
        &["bench", "avg threads", "paper", ""],
    );
    for &w in &c.workloads {
        let mean: f64 = c
            .cell(w, Scheduler::Ilan)
            .iter()
            .map(|r| r.weighted_threads)
            .sum::<f64>()
            / c.num_runs as f64;
        t.row(vec![
            w.name().into(),
            format!("{mean:.1}"),
            paper_fig3(w).into(),
            bar(mean, cores, 16),
        ]);
    }
    if let Some(dir) = out {
        t.save_csv(dir, "fig3_threads");
    }
    t.render()
}

/// Figure 4: the no-moldability ablation vs the baseline.
pub fn fig4(c: &Collection, out: Option<&Path>) -> String {
    let mut t = Table::new(
        "Figure 4 — ILAN without moldability vs baseline",
        &[
            "bench",
            "speedup(nomold)",
            "speedup(full ILAN)",
            "paper(nomold)",
        ],
    );
    let mut ratios = Vec::new();
    for &w in &c.workloads {
        let nomold = c.speedup(w, Scheduler::IlanNoMold);
        let full = c.speedup(w, Scheduler::Ilan);
        ratios.push(nomold);
        t.row(vec![
            w.name().into(),
            pct(nomold),
            pct(full),
            paper_fig4(w).into(),
        ]);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    t.row(vec![
        "average".into(),
        pct(avg),
        String::new(),
        "+7.9%".into(),
    ]);
    if let Some(dir) = out {
        t.save_csv(dir, "fig4_nomold");
    }
    t.render()
}

/// Table 1: standard deviation of execution time over the runs.
pub fn table1(c: &Collection, out: Option<&Path>) -> String {
    let mut t = Table::new(
        "Table 1 — std-dev of execution time (s) over runs",
        &[
            "bench",
            "baseline sd",
            "ilan sd",
            "paper base",
            "paper ilan",
        ],
    );
    for &w in &c.workloads {
        let base = distribution(&c.wall_times(w, Scheduler::Baseline));
        let ilan = distribution(&c.wall_times(w, Scheduler::Ilan));
        let (pb, pi) = paper_table1(w);
        t.row(vec![
            w.name().into(),
            format!("{:.4}", base.stddev),
            format!("{:.4}", ilan.stddev),
            pb.into(),
            pi.into(),
        ]);
    }
    if let Some(dir) = out {
        t.save_csv(dir, "table1_stddev");
    }
    t.render()
}

/// Figure 5: accumulated scheduling overhead, normalized to the baseline
/// (lower is better).
pub fn fig5(c: &Collection, out: Option<&Path>) -> String {
    let mut t = Table::new(
        "Figure 5 — accumulated scheduling overhead (normalized to baseline, lower is better)",
        &["bench", "baseline", "ilan", "paper"],
    );
    for &w in &c.workloads {
        let mean_ovh = |s: Scheduler| {
            c.cell(w, s).iter().map(|r| r.overhead_s).sum::<f64>() / c.num_runs as f64
        };
        let base = mean_ovh(Scheduler::Baseline);
        let ilan = mean_ovh(Scheduler::Ilan);
        let expect = match w {
            Workload::Cg => "ILAN much lower",
            Workload::Matmul => "ILAN higher",
            _ => "ILAN lower in 4/7",
        };
        t.row(vec![
            w.name().into(),
            "1.00".into(),
            format!("{:.2}", ilan / base),
            expect.into(),
        ]);
    }
    if let Some(dir) = out {
        t.save_csv(dir, "fig5_overhead");
    }
    t.render()
}

/// Figure 6: ILAN and static work-sharing, both normalized to the baseline.
pub fn fig6(c: &Collection, out: Option<&Path>) -> String {
    let mut t = Table::new(
        "Figure 6 — ILAN and OpenMP work-sharing vs baseline",
        &["bench", "ilan", "worksharing", "paper"],
    );
    for &w in &c.workloads {
        let expect = match w {
            Workload::Ft => "work-sharing wins",
            Workload::Cg => "ILAN wins clearly",
            _ => "ILAN ≥ work-sharing",
        };
        t.row(vec![
            w.name().into(),
            pct(c.speedup(w, Scheduler::Ilan)),
            pct(c.speedup(w, Scheduler::WorkSharing)),
            expect.into(),
        ]);
    }
    if let Some(dir) = out {
        t.save_csv(dir, "fig6_worksharing");
    }
    t.render()
}

/// Figure 3 detail: per-site settled configurations of one ILAN run per
/// benchmark (threads, node mask, steal policy) — the data behind the
/// per-benchmark averages.
pub fn fig3_details(topology: &ilan_topology::Topology, scale: ilan_workloads::Scale) -> String {
    use ilan::driver::run_sim_invocation;
    use ilan::{IlanParams, IlanScheduler, SiteId};
    use ilan_numasim::{MachineParams, SimMachine};

    let mut out = String::from("== Figure 3 detail — settled configuration per taskloop site ==\n");
    for w in ilan_workloads::ALL_WORKLOADS {
        let app = w.sim_app(topology, scale);
        let mut machine = SimMachine::new(MachineParams::for_topology(topology), 1);
        let mut ilan = IlanScheduler::new(IlanParams::for_topology(topology));
        // Drive every site to settlement.
        for round in 0..16 {
            for (idx, site) in app.sites.iter().enumerate() {
                let id = SiteId::new(idx as u64);
                if round > 0 && ilan.settled_decision(id).is_some() {
                    continue;
                }
                run_sim_invocation(&mut machine, &mut ilan, id, &site.tasks);
            }
        }
        out.push_str(&format!("{}\n", w.name()));
        for (idx, site) in app.sites.iter().enumerate() {
            let id = SiteId::new(idx as u64);
            match ilan.settled_decision(id) {
                Some(d) => out.push_str(&format!(
                    "  {:<18} threads={:<3} steal={:<6} mask={:?}\n",
                    site.name,
                    d.threads().unwrap_or(0),
                    format!("{:?}", d.steal().unwrap()),
                    d.mask().unwrap(),
                )),
                None => out.push_str(&format!("  {:<18} (unsettled)\n", site.name)),
            }
        }
    }
    out
}

/// Extension artifact: delivered DRAM bandwidth per benchmark and
/// scheduler — the machine-level view of why moldability and locality pay
/// (measured by the simulator's PERF_COUNTERS analogue).
pub fn bandwidth(c: &Collection, out: Option<&Path>) -> String {
    let mut t = Table::new(
        "Delivered DRAM bandwidth (GB/s, machine peak 640) — higher means the \
         memory system is being used, not necessarily well",
        &[
            "bench",
            "baseline",
            "ilan",
            "locality base",
            "locality ilan",
        ],
    );
    for &w in &c.workloads {
        let mean = |s: Scheduler, f: &dyn Fn(&crate::collect::RunResult) -> f64| -> f64 {
            c.cell(w, s).iter().map(f).sum::<f64>() / c.num_runs as f64
        };
        t.row(vec![
            w.name().into(),
            format!("{:.0}", mean(Scheduler::Baseline, &|r| r.bandwidth_gbps)),
            format!("{:.0}", mean(Scheduler::Ilan, &|r| r.bandwidth_gbps)),
            format!("{:.2}", mean(Scheduler::Baseline, &|r| r.locality)),
            format!("{:.2}", mean(Scheduler::Ilan, &|r| r.locality)),
        ]);
    }
    if let Some(dir) = out {
        t.save_csv(dir, "bandwidth");
    }
    t.render()
}

/// Extension artifact: per-invocation convergence of the dominant taskloop
/// site under ILAN vs the baseline — the exploration phase's cost and the
/// settled configuration's payoff, invocation by invocation.
pub fn converge(topology: &ilan_topology::Topology, scale: ilan_workloads::Scale) -> String {
    use crate::format::bar;
    use ilan::driver::run_sim_invocation;
    use ilan::{IlanParams, IlanScheduler, Policy, SiteId};
    use ilan_numasim::{MachineParams, SimMachine};
    use ilan_workloads::Workload;

    let mut out = String::from(
        "== Convergence — per-invocation time of the dominant site (ILAN vs baseline) ==\n",
    );
    for w in [Workload::Cg, Workload::Sp] {
        let app = w.sim_app(topology, scale);
        let (idx, site) = app
            .sites
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                let wa: f64 = a.tasks.iter().map(|t| t.ideal_ns(22.0)).sum();
                let wb: f64 = b.tasks.iter().map(|t| t.ideal_ns(22.0)).sum();
                wa.partial_cmp(&wb).unwrap()
            })
            .expect("sites");
        out.push_str(&format!("{} — site `{}`\n", w.name(), site.name));

        let mut base_machine = SimMachine::new(MachineParams::for_topology(topology), 9);
        let mut base: Box<dyn Policy> = Box::new(ilan::BaselinePolicy);
        let mut ilan_machine = SimMachine::new(MachineParams::for_topology(topology), 9);
        let mut ilan: Box<dyn Policy> =
            Box::new(IlanScheduler::new(IlanParams::for_topology(topology)));

        let id = SiteId::new(idx as u64);
        let mut rows = Vec::new();
        let mut max_t = 0.0f64;
        for k in 1..=12 {
            let (_, rb) = run_sim_invocation(&mut base_machine, base.as_mut(), id, &site.tasks);
            let (d, ri) = run_sim_invocation(&mut ilan_machine, ilan.as_mut(), id, &site.tasks);
            max_t = max_t.max(rb.time_ns).max(ri.time_ns);
            rows.push((k, rb.time_ns, ri.time_ns, d.threads().unwrap_or(0)));
        }
        for (k, tb, ti, threads) in rows {
            out.push_str(&format!(
                "  k={k:>2}  baseline {:>7.2}ms {:<14}  ilan({threads:>2}t) {:>7.2}ms {}\n",
                tb / 1e6,
                bar(tb, max_t, 14),
                ti / 1e6,
                bar(ti, max_t, 14),
            ));
        }
    }
    out
}

/// Extension artifact: a fully traced CG run under ILAN — every invocation's
/// scheduler event log is audited against its outcome, the merged log's
/// inter-node steal matrix is printed, and with `out` the Chrome-trace JSON
/// (`chrome://tracing` / Perfetto) is written as `trace_cg.json`.
pub fn trace_artifact(
    topology: &ilan_topology::Topology,
    scale: ilan_workloads::Scale,
    seed: u64,
    out: Option<&Path>,
) -> String {
    use ilan::driver::sim_placement;
    use ilan::{IlanParams, IlanScheduler, Policy, SiteId, TaskloopReport};
    use ilan_numasim::trace::{audit, AuditExpect, EventLog, NodeTally};
    use ilan_numasim::{MachineParams, SimMachine};

    let app = Workload::Cg.sim_app(topology, scale);
    let mut machine = SimMachine::new(MachineParams::for_topology(topology), seed);
    let mut sched = IlanScheduler::new(IlanParams::for_topology(topology));

    let mut merged = EventLog::default();
    let mut invocations = 0usize;
    let mut clean = 0usize;
    let mut violations = Vec::new();
    for step in 0..app.steps {
        for &site_idx in &app.schedule {
            let site = SiteId::new(site_idx as u64);
            let tasks = &app.sites[site_idx].tasks;
            let decision = sched.decide(site);
            let (cores, plan) =
                sim_placement(topology, &decision, topology.all_nodes(), tasks.len());
            let outcome = machine.run_taskloop_traced(&cores, &plan, tasks);
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
            invocations += 1;
            if report.ok() {
                clean += 1;
            } else {
                for v in &report.violations {
                    violations.push(format!("step {step} site {site_idx}: {v}"));
                }
            }
            merged.merge(&outcome.events);

            let mut tr = TaskloopReport::from(&outcome);
            let cost = sched.decision_overhead_ns();
            tr.time_ns += cost;
            tr.sched_overhead_ns += cost;
            machine.advance_serial(cost);
            sched.record(site, &decision, &tr);
        }
        machine.advance_serial(app.serial_ns);
    }

    let mut out_text = format!(
        "== Trace — CG under ILAN, every invocation audited (seed {seed}) ==\n\
         invocations: {invocations}  audited clean: {clean}  events: {}\n\
         local pops: {}  intra-node steals: {}  inter-node steals: {}\n",
        merged.len(),
        merged.local_pops(),
        merged.intra_node_steals(),
        merged.inter_node_steals(),
    );
    for v in &violations {
        out_text.push_str(&format!("  ! {v}\n"));
    }
    out_text.push_str(&merged.render_steal_matrix());
    if let Some(dir) = out {
        let path = dir.join("trace_cg.json");
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, merged.chrome_trace_json()))
        {
            Ok(()) => out_text.push_str(&format!("chrome trace: {}\n", path.display())),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    out_text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect;
    use ilan_topology::presets;
    use ilan_workloads::Scale;

    /// A tiny end-to-end render pass over all artifacts (2 runs, quick
    /// scale) — checks plumbing, not shapes.
    #[test]
    fn all_figures_render() {
        let topo = presets::epyc_9354_2s();
        let c = collect(&topo, &crate::ALL_SCHEDULERS, Scale::Quick, 2);
        for text in [
            fig2(&c, None),
            fig3(&c, None),
            fig4(&c, None),
            fig5(&c, None),
            fig6(&c, None),
            table1(&c, None),
        ] {
            assert!(text.contains("CG"));
            assert!(text.contains("Matmul"));
            assert!(text.lines().count() >= 9);
        }
    }

    #[test]
    fn trace_artifact_audits_clean() {
        let topo = presets::epyc_9354_2s();
        let text = trace_artifact(&topo, Scale::Quick, 7, None);
        assert!(text.contains("steal matrix"), "{text}");
        assert!(!text.contains('!'), "audit violations:\n{text}");
        // Every invocation audited clean.
        let line = text.lines().nth(1).unwrap();
        let grab = |key: &str| {
            let rest = &line[line.find(key).unwrap() + key.len()..];
            rest.split_whitespace()
                .next()
                .unwrap()
                .parse::<usize>()
                .unwrap()
        };
        assert_eq!(grab("invocations:"), grab("clean:"));
        assert!(grab("events:") > 0);
    }

    #[test]
    fn converge_renders_both_series() {
        let topo = ilan_topology::presets::epyc_9354_2s();
        let text = converge(&topo, ilan_workloads::Scale::Quick);
        assert!(text.contains("CG"));
        assert!(text.contains("SP"));
        assert!(text.contains("k=12"));
    }

    #[test]
    fn fig3_details_settles_every_site() {
        let topo = ilan_topology::presets::epyc_9354_2s();
        let text = fig3_details(&topo, ilan_workloads::Scale::Quick);
        assert!(text.contains("cg/spmv"));
        assert!(text.contains("sp/z-solve"));
        assert!(
            !text.contains("unsettled"),
            "all sites must settle:\n{text}"
        );
    }
}
