//! The a-priori tier plan must name the tier the engine executes: for
//! every radius × fold × wavefront depth × policy, `Plan::query` agrees
//! with the tier and degradation the executed sweep reports, and every
//! tier computes the same bits. The model, the tuner's counters and the
//! CLI all read the plan, so this is what keeps them honest.

use std::sync::Arc;

use xtests::seeded_grid;
use yasksite::telemetry::{Level, Telemetry};
use yasksite::{PredictionCache, SearchSpace, Solution, TuneRequest, TuneStrategy};
use yasksite_arch::Machine;
use yasksite_engine::{
    Plan, SweepReport, SweepRequest, Tier, TierPolicy, TierReason, TuningParams,
};
use yasksite_grid::{Fold, Grid3};
use yasksite_stencil::builders::heat3d;
use yasksite_stencil::Stencil;

const N: [usize; 3] = [24, 12, 8];

/// Runs `depth` time steps of `params` under `policy` from the seeded
/// initial state: one `apply` for depth one, one `run_wavefront`
/// otherwise (or always, with `wavefront`). Returns the newest time
/// level and the report.
fn run(
    stencil: &Stencil,
    params: &TuningParams,
    policy: TierPolicy,
    wavefront: bool,
) -> (Grid3, SweepReport) {
    let halo = stencil.info().radius;
    let mut a = seeded_grid("a", N, halo, params.fold, 7);
    let mut b = seeded_grid("b", N, halo, params.fold, 7);
    let req = SweepRequest::new(params).tier(policy);
    if params.wavefront == 1 && !wavefront {
        let report = req.apply(stencil, &[&a], &mut b).unwrap();
        (b, report)
    } else {
        let report = req.run_wavefront(stencil, &mut a, &mut b).unwrap();
        (a, report)
    }
}

#[test]
fn plan_agrees_with_the_executed_tier() {
    let folds = [
        Fold::new(8, 1, 1),
        Fold::new(3, 1, 1),
        Fold::new(4, 2, 1),
        Fold::new(2, 2, 2),
        Fold::new(3, 3, 1),
    ];
    let policies = [
        TierPolicy::Auto,
        TierPolicy::ForceScalar,
        TierPolicy::ForceFolded,
    ];
    for radius in [1usize, 2] {
        let stencil = heat3d(radius);
        for depth in [1usize, 2, 4] {
            let unit = TuningParams::new([24, 4, 4], Fold::unit()).wavefront(depth);
            let (reference, _) = run(&stencil, &unit, TierPolicy::Auto, false);
            for fold in folds {
                for policy in policies {
                    let params = TuningParams::new([24, 4, 4], fold)
                        .threads(2)
                        .wavefront(depth);
                    let case = format!("radius {radius}, fold {fold}, depth {depth}, {policy:?}");
                    let plan = Plan::query(&stencil, &params, policy);
                    let (out, report) = run(&stencil, &params, policy, false);
                    assert_eq!(plan.tier(), report.tier, "{case}");
                    assert_eq!(plan.reason, report.tier_reason, "{case}");
                    assert_eq!(plan.reason.degraded(), report.degraded(), "{case}");
                    assert_eq!(out.max_abs_diff(&reference).unwrap(), 0.0, "{case}");
                }
            }
        }
    }
}

/// `run_wavefront` at depth one is a spatial sweep: it plans and runs as
/// `apply` does on every fold, the brick kernel included.
#[test]
fn depth_one_wavefront_is_a_spatial_sweep() {
    let stencil = heat3d(1);
    for fold in [Fold::new(8, 1, 1), Fold::new(4, 2, 1), Fold::new(3, 3, 1)] {
        for policy in [TierPolicy::Auto, TierPolicy::ForceScalar] {
            let params = TuningParams::new([24, 4, 4], fold).threads(2);
            let (want, applied) = run(&stencil, &params, policy, false);
            let (got, report) = run(&stencil, &params, policy, true);
            assert_eq!(report.tier_reason, applied.tier_reason, "{fold} {policy:?}");
            assert_eq!(got.max_abs_diff(&want).unwrap(), 0.0, "{fold} {policy:?}");
        }
    }
}

/// heat-3d-r1 with `fold=4x2x1 wf=2` runs the per-point generic loop (the
/// brick kernel sweeps whole grids, not planes). The plan, the executed
/// report, `Solution::plan_tier`, both measurement backends and the
/// tuner's tier counters must all say so.
#[test]
fn folded_wavefront_is_generic_everywhere() {
    let stencil = heat3d(1);
    let domain = [32, 16, 16];
    let params = TuningParams::new(domain, Fold::new(4, 2, 1)).wavefront(2);
    let policy = TierPolicy::from_env();

    let plan = Plan::query(&stencil, &params, policy);
    assert_eq!(plan.tier(), Tier::Generic);
    assert_eq!(plan.reason, TierReason::WavefrontNeedsRowMajor);
    assert!(plan.reason.degraded());
    let (_, report) = run(&stencil, &params, policy, true);
    assert_eq!(
        (report.tier, report.tier_reason),
        (plan.tier(), plan.reason)
    );

    let sol = Solution::new(stencil.clone(), domain, Machine::host());
    assert_eq!(sol.plan_tier(&params), plan);
    for machine in [Machine::host(), Machine::cascade_lake()] {
        let m = Solution::new(stencil.clone(), domain, machine)
            .measure(&params)
            .unwrap();
        assert_eq!((m.tier, m.tier_reason), (plan.tier(), plan.reason));
    }

    // A measured tune over this fold's wavefront depths counts every
    // generic, degraded trial.
    let space = SearchSpace::standard(&stencil, domain, sol.machine())
        .with_folds(vec![Fold::new(4, 2, 1)])
        .with_blocks(vec![domain]);
    let candidates = space.candidates(1);
    let count =
        |f: &dyn Fn(Plan) -> bool| candidates.iter().filter(|p| f(sol.plan_tier(p))).count() as u64;
    let generic = count(&|p| p.tier() == Tier::Generic);
    assert!(generic >= 3, "wf 2/4/8 all run generic: {generic}");
    let (tel, _sink) = Telemetry::recording(Level::Info);
    let req = TuneRequest::new(TuneStrategy::Empirical)
        .cores(1)
        .cache(Arc::new(PredictionCache::new()))
        .telemetry(tel.clone());
    let r = sol.tune_space_with(&space, &req).unwrap();
    assert_eq!(r.cost.fallbacks, 0, "every trial measured");
    assert_eq!(tel.counter("tier.ran.generic"), generic);
    assert_eq!(
        tel.counter("tier.degraded"),
        count(&|p| p.reason.degraded())
    );
    let winner = sol.plan_tier(&r.best);
    assert_eq!((r.tier, r.tier_reason), (winner.tier(), winner.reason));
}

/// Priced with scalar issue, folded wavefronts no longer top the analytic
/// ranking of heat-3d-r1 on Cascade Lake, where their SIMD-priced
/// predictions used to fill the hybrid shortlist.
#[test]
fn analytic_shortlist_holds_no_generic_wavefronts() {
    let sol = Solution::new(heat3d(1), [128, 128, 128], Machine::cascade_lake());
    let r = sol.tune(TuneStrategy::Analytic, 4).unwrap();
    for (p, _) in r.ranked.iter().take(6) {
        let plan = Plan::query(sol.stencil(), p, TierPolicy::Auto);
        assert_ne!(plan.tier(), Tier::Generic, "{p}: {:?}", plan.reason);
    }
}
