//! Cross-validation against the dynamic machine simulator: the analyzer's
//! tenure audit must reproduce `SmpSim`'s false-sharing counter exactly,
//! the static baseline model must reproduce the baseline's traced access
//! sets exactly, and the clean/dirty verdict must agree with the
//! simulator on every tested plan.

use spiral_baselines::{FftwLikeConfig, FftwLikeFft};
use spiral_codegen::hook::{MemHook, Region};
use spiral_codegen::plan::{Plan, Step};
use spiral_codegen::stage::LocalProgram;
use spiral_rewrite::multicore_dft_expanded;
use spiral_sim::{core_duo, opteron, MachineSpec, SmpSim};
use spiral_verify::audit::{audit_plan, LineTenureAudit};
use spiral_verify::baseline::{fftw_like_footprints, FftwLikeSchedule};
use spiral_verify::footprint::StepFootprint;
use spiral_verify::{verify_plan, DiagKind, VerifyOptions};
use std::collections::{BTreeSet, HashMap};

fn machine_for(threads: usize) -> MachineSpec {
    if threads <= 2 {
        core_duo()
    } else {
        opteron()
    }
}

/// Handcrafted + derived plan corpus: clean µ-aware plans, µ-oblivious
/// derivations (µ' = 1) examined at the machine's µ, and a deliberately
/// line-splitting schedule.
fn corpus() -> Vec<(&'static str, Plan)> {
    let mut plans: Vec<(&'static str, Plan)> = Vec::new();
    for (n, p, mu) in [
        (64usize, 2usize, 4usize),
        (256, 2, 4),
        (256, 4, 4),
        (1024, 4, 8),
    ] {
        let f = multicore_dft_expanded(n, p, mu, None, 8).unwrap();
        plans.push(("mu-aware", Plan::from_formula(&f, p, mu).unwrap()));
        plans.push((
            "mu-aware-fused",
            Plan::from_formula(&f, p, mu).unwrap().fuse_exchanges(),
        ));
    }
    for (n, p) in [(16usize, 2usize), (64, 2), (64, 4), (256, 4)] {
        // Derived as if cache lines were one element long.
        let f = multicore_dft_expanded(n, p, 1, None, 8).unwrap();
        plans.push(("mu-oblivious", Plan::from_formula(&f, p, 1).unwrap()));
    }
    plans.push((
        "sub-line-chunks",
        Plan {
            n: 8,
            threads: 2,
            mu: 4,
            vec_width: 1,
            steps: vec![Step::Par {
                chunk: 2,
                programs: vec![LocalProgram::identity(2); 4],
                gather: None,
            }],
        },
    ));
    plans
}

#[test]
fn tenure_audit_equals_simulator_false_sharing_counter() {
    for (label, plan) in corpus() {
        let machine = machine_for(plan.threads);
        let mu = machine.mu();
        let audit = audit_plan(&plan, mu);
        let mut sim = SmpSim::new(machine, plan.n);
        plan.run_traced(&mut sim);
        assert_eq!(
            audit.false_sharing, sim.stats.false_sharing,
            "{label} n={} p={}: audit vs simulator",
            plan.n, plan.threads
        );
    }
}

#[test]
fn verdict_agrees_with_simulator_on_every_tested_plan() {
    for (label, plan) in corpus() {
        let machine = machine_for(plan.threads);
        let mu = machine.mu();
        let opts = VerifyOptions {
            line: Some(mu),
            ..Default::default()
        };
        let report = verify_plan(&plan, &opts);
        let mut sim = SmpSim::new(machine, plan.n);
        plan.run_traced(&mut sim);
        assert_eq!(
            report.has_kind(DiagKind::FalseSharing),
            sim.stats.false_sharing > 0,
            "{label} n={} p={}: static verdict vs {} dynamic transfers ({:?})",
            plan.n,
            plan.threads,
            sim.stats.false_sharing,
            report.diagnostics
        );
    }
}

/// Exact (step, tid, region, index) access sets from any traced schedule.
#[derive(Default)]
struct SetHook {
    step: usize,
    reads: HashMap<(usize, usize, String), BTreeSet<usize>>,
    writes: HashMap<(usize, usize, String), BTreeSet<usize>>,
    flops: HashMap<(usize, usize), u64>,
}

impl MemHook for SetHook {
    fn read(&mut self, tid: usize, region: Region, idx: usize) {
        self.reads
            .entry((self.step, tid, format!("{region:?}")))
            .or_default()
            .insert(idx);
    }
    fn write(&mut self, tid: usize, region: Region, idx: usize) {
        self.writes
            .entry((self.step, tid, format!("{region:?}")))
            .or_default()
            .insert(idx);
    }
    fn flops(&mut self, tid: usize, count: u64) {
        *self.flops.entry((self.step, tid)).or_default() += count;
    }
    fn barrier(&mut self) {
        self.step += 1;
    }
}

fn footprint_sets(
    steps: &[StepFootprint],
    writes: bool,
) -> HashMap<(usize, usize, String), BTreeSet<usize>> {
    let mut out: HashMap<(usize, usize, String), BTreeSet<usize>> = HashMap::new();
    for sf in steps {
        for (tid, tf) in sf.threads.iter().enumerate() {
            let rs = if writes { &tf.writes } else { &tf.reads };
            for (region, set) in rs.iter() {
                let e = out
                    .entry((sf.index, tid, format!("{region:?}")))
                    .or_default();
                set.for_each(|x| {
                    e.insert(x);
                });
            }
        }
    }
    out
}

#[test]
fn baseline_model_reproduces_traced_baseline_exactly() {
    for n in [16usize, 64, 256] {
        for threads in [1usize, 2, 4] {
            for grain in [0usize, 1, 4] {
                let cfg = FftwLikeConfig {
                    grain,
                    thread_pool: true,
                    ..Default::default()
                };
                let f = FftwLikeFft::new(n, cfg);
                let mut hook = SetHook::default();
                f.trace(threads, &mut hook);
                let model = fftw_like_footprints(&FftwLikeSchedule { n, threads, grain });
                let tag = format!("n={n} p={threads} grain={grain}");
                assert_eq!(footprint_sets(&model, false), hook.reads, "{tag} reads");
                assert_eq!(footprint_sets(&model, true), hook.writes, "{tag} writes");
                for sf in &model {
                    for (tid, tf) in sf.threads.iter().enumerate() {
                        let traced = hook.flops.get(&(sf.index, tid)).copied().unwrap_or(0);
                        assert_eq!(tf.flops, traced, "{tag} step {} tid {tid}", sf.index);
                    }
                }
            }
        }
    }
}

#[test]
fn audit_matches_simulator_on_baseline_traces_too() {
    for n in [16usize, 64, 256, 1024] {
        for grain in [0usize, 1, 2] {
            let machine = core_duo();
            let cfg = FftwLikeConfig {
                grain,
                thread_pool: true,
                ..Default::default()
            };
            let f = FftwLikeFft::new(n, cfg);
            let mut audit = LineTenureAudit::new(n, machine.mu());
            f.trace(machine.p, &mut audit);
            let mut sim = SmpSim::new(machine.clone(), n);
            f.trace(machine.p, &mut sim);
            assert_eq!(
                audit.false_sharing, sim.stats.false_sharing,
                "n={n} grain={grain}"
            );
        }
    }
}
