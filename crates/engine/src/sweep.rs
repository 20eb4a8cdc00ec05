//! The unified execution API: [`SweepRequest`] / [`SweepReport`].
//!
//! The native engine grew one entry point per execution dimension
//! (pool × profiler × wavefront), and the vector-folded tier adds yet
//! another. Instead of a seventh free function, every run is now
//! constructed through one builder — mirroring the `TuneRequest` redesign
//! on the tuning side — and returns a [`SweepReport`] that records not
//! just the timing but *which tier actually executed and why*:
//!
//! ```
//! use yasksite_engine::{SweepRequest, Tier, TierPolicy, TuningParams};
//! use yasksite_grid::{Fold, Grid3};
//! use yasksite_stencil::builders::heat3d;
//!
//! let s = heat3d(1);
//! let fold = Fold::new(8, 1, 1);
//! let mut u = Grid3::new("u", [32, 32, 32], [1, 1, 1], fold);
//! u.fill_with(|i, j, k| (i + j + k) as f64);
//! let mut out = Grid3::new("out", [32, 32, 32], [1, 1, 1], fold);
//! let params = TuningParams::new([32, 8, 8], fold);
//! let report = SweepRequest::new(&params)
//!     .tier(TierPolicy::Auto)
//!     .apply(&s, &[&u], &mut out)?;
//! assert_eq!(report.tier, Tier::Folded);
//! # Ok::<(), yasksite_engine::EngineError>(())
//! ```

use std::time::Instant;

use yasksite_grid::Grid3;
use yasksite_stencil::Stencil;

use crate::compile::CompiledStencil;
use crate::error::EngineError;
use crate::native::execute_apply;
use crate::params::TuningParams;
use crate::pool::ExecPool;
use crate::profile::SweepProfiler;
use crate::wavefront::execute_wavefront;

/// Environment variable that overrides the default tier policy
/// (`scalar` or `folded`); see [`TierPolicy::from_env`].
pub const FORCE_TIER_ENV: &str = "YASKSITE_FORCE_TIER";

/// The rung of the specialisation ladder a sweep actually executed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Explicitly vectorised kernels: the wide-lane row kernel on
    /// row-major folds, or the brick-gather kernel on multi-dimensional
    /// folds. Bitwise identical to every other tier.
    Folded,
    /// The scalar specialised row kernels (monomorphised by arity, with
    /// a dynamic-arity fallback) on row-major storage.
    Scalar,
    /// The threaded tape interpreter for non-linear stencils on
    /// row-major storage.
    Tape,
    /// The layout-agnostic per-point path (single-threaded).
    Generic,
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Tier::Folded => "folded",
            Tier::Scalar => "scalar",
            Tier::Tape => "tape",
            Tier::Generic => "generic",
        };
        write!(f, "{s}")
    }
}

/// How the executor chooses between the folded and scalar tiers.
///
/// Forcing a tier never changes results — every tier computes each output
/// point with the identical FP operation order — it only changes which
/// kernel runs. When a forced tier is ineligible for the stencil/layout
/// at hand, the executor degrades down the ladder and records the reason
/// in [`SweepReport::tier_reason`] rather than failing. The tape and
/// generic tiers are selected by stencil/layout alone and are unaffected
/// by the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierPolicy {
    /// Prefer the folded tier whenever the stencil/layout is eligible.
    #[default]
    Auto,
    /// Run linear row-major sweeps through the scalar row kernels.
    ForceScalar,
    /// Require the folded tier; degrade with a recorded reason when
    /// ineligible.
    ForceFolded,
}

impl TierPolicy {
    /// Parses a policy name: `auto`, `scalar` or `folded`
    /// (case-insensitive). Returns `None` for anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<TierPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(TierPolicy::Auto),
            "scalar" => Some(TierPolicy::ForceScalar),
            "folded" => Some(TierPolicy::ForceFolded),
            _ => None,
        }
    }

    /// The policy selected by the `YASKSITE_FORCE_TIER` environment
    /// variable, read live: `scalar`/`folded` force the respective tier
    /// for the whole process (the CI forced-tier legs run the entire
    /// suite this way), anything else — including unset — is
    /// [`TierPolicy::Auto`].
    #[must_use]
    pub fn from_env() -> TierPolicy {
        std::env::var(FORCE_TIER_ENV)
            .ok()
            .and_then(|v| TierPolicy::parse(&v))
            .unwrap_or(TierPolicy::Auto)
    }
}

/// Why the planner picked a kernel: one variant per planner rule.
/// [`TierReason::as_str`] is the one-line text traces, counters and the
/// daemon report; [`TierReason::degraded`] says whether the sweep runs
/// below the tier its fold or policy asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TierReason {
    /// Linear stencil, row-major fold with a supported lane count.
    LaneKernel,
    /// Linear stencil, multi-dimensional fold with a supported element
    /// count on identically laid-out grids.
    BrickKernel,
    /// Scalar tier forced on a row-major fold.
    ForcedScalar,
    /// Non-linear stencil on a row-major fold.
    TapeInterpreter,
    /// `fold.x` has no supported lane count.
    UnsupportedLanes,
    /// Folded tier forced, but `fold.x` has no supported lane count.
    ForcedFoldedUnsupportedLanes,
    /// Scalar tier forced on a multi-dimensional fold.
    ForcedScalarNeedsRowMajor,
    /// Multi-dimensional fold with an unsupported element count or
    /// mismatched grid layouts.
    BrickIneligible,
    /// Non-linear stencil on a multi-dimensional fold.
    NonLinearFolded,
    /// Wavefront of a non-linear stencil.
    WavefrontNonLinear,
    /// Wavefront on ping-pong buffers with different layouts.
    WavefrontMismatchedLayouts,
    /// Wavefront on a multi-dimensional fold.
    WavefrontNeedsRowMajor,
}

impl TierReason {
    /// The reason as one line of text.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TierReason::LaneKernel => "row-major fold: folded lane kernel",
            TierReason::BrickKernel => "multi-dimensional fold: folded brick kernel",
            TierReason::ForcedScalar => "tier forced to scalar",
            TierReason::TapeInterpreter => "non-linear stencil: threaded tape interpreter",
            TierReason::UnsupportedLanes => {
                "fold.x has no supported lane count: scalar row kernels"
            }
            TierReason::ForcedFoldedUnsupportedLanes => {
                "folded tier forced but fold.x has no supported lane count: scalar row kernels"
            }
            TierReason::ForcedScalarNeedsRowMajor => {
                "tier forced to scalar but scalar row kernels need a row-major fold: generic path"
            }
            TierReason::BrickIneligible => {
                "multi-dimensional fold ineligible for the brick kernel \
                 (unsupported lane count or mismatched grid layouts): generic path"
            }
            TierReason::NonLinearFolded => {
                "non-linear stencil on a multi-dimensional fold: per-point generic path"
            }
            TierReason::WavefrontNonLinear => "non-linear stencil: per-point generic wavefront",
            TierReason::WavefrontMismatchedLayouts => {
                "ping-pong buffers have mismatched layouts: per-point generic wavefront"
            }
            TierReason::WavefrontNeedsRowMajor => {
                "wavefront folded tier requires a row-major fold: per-point generic wavefront"
            }
        }
    }

    /// Whether the sweep runs below the tier its fold or policy asked
    /// for. Naming the natural pick, or honouring a forced scalar tier
    /// that exists, is not a degradation.
    #[must_use]
    pub fn degraded(self) -> bool {
        match self {
            TierReason::LaneKernel
            | TierReason::BrickKernel
            | TierReason::ForcedScalar
            | TierReason::TapeInterpreter => false,
            TierReason::UnsupportedLanes
            | TierReason::ForcedFoldedUnsupportedLanes
            | TierReason::ForcedScalarNeedsRowMajor
            | TierReason::BrickIneligible
            | TierReason::NonLinearFolded
            | TierReason::WavefrontNonLinear
            | TierReason::WavefrontMismatchedLayouts
            | TierReason::WavefrontNeedsRowMajor => true,
        }
    }
}

/// The concrete kernel the planner picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Folded lane kernel on row-major storage with this many x-lanes.
    Lanes(usize),
    /// Folded brick-gather kernel with this many elements per brick.
    Brick(usize),
    /// Scalar specialised row kernels.
    Scalar,
    /// Threaded tape interpreter.
    Tape,
    /// Per-point generic path.
    Generic,
}

/// What the planner decided for one sweep: the kernel and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub(crate) kernel: Kernel,
    /// Why the planner picked this kernel.
    pub reason: TierReason,
}

impl Plan {
    /// A-priori query for the tuner, the ECM model and the daemon: the
    /// plan a sweep of `stencil` under `params` and `policy` gets on
    /// identically laid-out grids (as `Solution::allocate_grids`
    /// produces). A wavefront depth above one plans the wavefront sweep.
    #[must_use]
    pub fn query(stencil: &Stencil, params: &TuningParams, policy: TierPolicy) -> Plan {
        plan(&CompiledStencil::compile(stencil), params, true, policy)
    }

    /// The rung of the specialisation ladder the kernel belongs to.
    #[must_use]
    pub fn tier(&self) -> Tier {
        match self.kernel {
            Kernel::Lanes(_) | Kernel::Brick(_) => Tier::Folded,
            Kernel::Scalar => Tier::Scalar,
            Kernel::Tape => Tier::Tape,
            Kernel::Generic => Tier::Generic,
        }
    }
}

/// Lane counts the hand-unrolled kernels are monomorphised for.
fn lane_count_supported(lanes: usize) -> bool {
    matches!(lanes, 2 | 4 | 8 | 16)
}

/// The tier planner, shared by both executors and the a-priori query.
/// `layouts_match` says whether every grid shares the output's fold,
/// `alloc` and `halo`.
///
/// Spatial sweeps (`params.wavefront == 1`): linear stencils on
/// row-major folds run the lane kernel when `fold.x` is a supported lane
/// count, the scalar rows otherwise; on multi-dimensional folds they run
/// the brick kernel when the element count is supported and the layouts
/// match (it addresses all grids through one gather table). Non-linear
/// stencils run the tape interpreter on row-major folds.
///
/// Wavefront sweeps (`params.wavefront > 1`) hand each pool job a
/// contiguous window of plane rows, so only linear stencils on matching
/// row-major layouts get the lane or scalar rows; everything else runs
/// the per-point generic loop (the brick and tape kernels sweep whole
/// grids, not single planes).
pub(crate) fn plan(
    compiled: &CompiledStencil,
    params: &TuningParams,
    layouts_match: bool,
    policy: TierPolicy,
) -> Plan {
    let linear = compiled.is_linear();
    let row_major = params.row_major();
    let (kernel, reason) = if params.wavefront > 1 {
        if !linear {
            (Kernel::Generic, TierReason::WavefrontNonLinear)
        } else if !layouts_match {
            (Kernel::Generic, TierReason::WavefrontMismatchedLayouts)
        } else if !row_major {
            (Kernel::Generic, TierReason::WavefrontNeedsRowMajor)
        } else {
            row_kernel(params.fold.x, policy)
        }
    } else if !linear {
        if row_major {
            (Kernel::Tape, TierReason::TapeInterpreter)
        } else {
            (Kernel::Generic, TierReason::NonLinearFolded)
        }
    } else if row_major {
        row_kernel(params.fold.x, policy)
    } else {
        let elems = params.fold.elems();
        match policy {
            TierPolicy::ForceScalar => (Kernel::Generic, TierReason::ForcedScalarNeedsRowMajor),
            _ if lane_count_supported(elems) && layouts_match => {
                (Kernel::Brick(elems), TierReason::BrickKernel)
            }
            _ => (Kernel::Generic, TierReason::BrickIneligible),
        }
    };
    Plan { kernel, reason }
}

/// The row kernel for a linear stencil on a row-major fold.
fn row_kernel(lanes: usize, policy: TierPolicy) -> (Kernel, TierReason) {
    match policy {
        TierPolicy::ForceScalar => (Kernel::Scalar, TierReason::ForcedScalar),
        _ if lane_count_supported(lanes) => (Kernel::Lanes(lanes), TierReason::LaneKernel),
        TierPolicy::ForceFolded => (Kernel::Scalar, TierReason::ForcedFoldedUnsupportedLanes),
        TierPolicy::Auto => (Kernel::Scalar, TierReason::UnsupportedLanes),
    }
}

/// Builder for one native sweep: spatial (`apply`) or temporally blocked
/// (`run_wavefront`). The single configurable entry point to the native
/// executors (the former free-function family was removed after its
/// deprecation release).
///
/// Defaults: the process-global [`ExecPool`], no profiler, and the tier
/// policy from [`TierPolicy::from_env`].
#[derive(Clone)]
pub struct SweepRequest<'a> {
    params: TuningParams,
    pool: Option<&'a ExecPool>,
    profiler: Option<&'a SweepProfiler>,
    tier: TierPolicy,
}

impl<'a> SweepRequest<'a> {
    /// Starts a request from tuning parameters (block, sub-block, fold,
    /// threads, wavefront depth, store policy). The parameters are
    /// copied; later builder calls refine this copy.
    #[must_use]
    pub fn new(params: &TuningParams) -> SweepRequest<'a> {
        SweepRequest {
            params: params.clone(),
            pool: None,
            profiler: None,
            tier: TierPolicy::from_env(),
        }
    }

    /// Runs on `pool` instead of the process-global pool. Results are
    /// bitwise identical for any pool: the work decomposition depends
    /// only on `(domain, params.threads)`.
    #[must_use]
    pub fn pool(mut self, pool: &'a ExecPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches a [`SweepProfiler`]. Profiling reads clocks only around
    /// the kernels, never inside them, so profiled runs stay bitwise
    /// identical.
    #[must_use]
    pub fn profiler(mut self, prof: &'a SweepProfiler) -> Self {
        self.profiler = Some(prof);
        self
    }

    /// Overrides the tier policy (the default comes from
    /// `YASKSITE_FORCE_TIER`). An explicit policy always wins over the
    /// environment.
    #[must_use]
    pub fn tier(mut self, policy: TierPolicy) -> Self {
        self.tier = policy;
        self
    }

    /// Overrides the wavefront depth from the parameters (only
    /// meaningful for [`SweepRequest::run_wavefront`]).
    #[must_use]
    pub fn wavefront(mut self, depth: usize) -> Self {
        self.params.wavefront = depth;
        self
    }

    /// The parameters this request will execute with.
    #[must_use]
    pub fn params(&self) -> &TuningParams {
        &self.params
    }

    fn pool_ref(&self) -> &ExecPool {
        match self.pool {
            Some(pool) => pool,
            None => ExecPool::global(),
        }
    }

    /// Applies `stencil` once over the full domain of `out` with the
    /// blocked YASK loop structure, really executing on the host.
    ///
    /// # Errors
    /// Returns binding errors (arity/halo/domain) or parameter errors
    /// (fold mismatch, zero extents).
    pub fn apply(
        &self,
        stencil: &Stencil,
        inputs: &[&Grid3],
        out: &mut Grid3,
    ) -> Result<SweepReport, EngineError> {
        let disabled;
        let prof = match self.profiler {
            Some(p) => p,
            None => {
                disabled = SweepProfiler::disabled();
                &disabled
            }
        };
        let (run, plan) = execute_apply(
            self.pool_ref(),
            stencil,
            inputs,
            out,
            &self.params,
            prof,
            self.tier,
        )?;
        Ok(SweepReport {
            seconds: run.seconds,
            mlups: run.mlups,
            updates: run.updates,
            threads_used: run.threads_used,
            tier: plan.tier(),
            tier_reason: plan.reason,
            wavefront_depth: 1,
        })
    }

    /// Performs `wavefront` time steps of `stencil` on the ping-pong
    /// pair `(a, b)` in one skewed sweep; on return `a` holds the newest
    /// time level. `updates`/`mlups` in the report count all
    /// `domain × depth` lattice updates the sweep performed. Depth one
    /// is a spatial sweep and plans and runs as [`SweepRequest::apply`].
    ///
    /// # Errors
    /// Fails for multi-input stencils, binding problems, or invalid
    /// parameters.
    pub fn run_wavefront(
        &self,
        stencil: &Stencil,
        a: &mut Grid3,
        b: &mut Grid3,
    ) -> Result<SweepReport, EngineError> {
        let disabled;
        let prof = match self.profiler {
            Some(p) => p,
            None => {
                disabled = SweepProfiler::disabled();
                &disabled
            }
        };
        let updates = (a.domain_points() * self.params.wavefront) as u64;
        let start = Instant::now();
        let (widest, plan) = execute_wavefront(
            self.pool_ref(),
            stencil,
            a,
            b,
            &self.params,
            prof,
            self.tier,
        )?;
        let seconds = start.elapsed().as_secs_f64();
        Ok(SweepReport {
            seconds,
            mlups: updates as f64 / seconds.max(1e-12) / 1e6,
            updates,
            threads_used: widest,
            tier: plan.tier(),
            tier_reason: plan.reason,
            wavefront_depth: self.params.wavefront,
        })
    }
}

/// What one [`SweepRequest`] execution did: the timing of the run plus
/// the tier that actually executed and why the planner picked it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepReport {
    /// Wall time of the sweep.
    pub seconds: f64,
    /// Achieved million lattice updates per second (for wavefront runs,
    /// over all fused time steps).
    pub mlups: f64,
    /// Lattice updates performed (`domain × wavefront_depth`).
    pub updates: u64,
    /// Threads that actually received work (non-empty slabs / widest
    /// per-plane chunk count; `1` on the generic tier).
    pub threads_used: usize,
    /// The specialisation-ladder rung that executed.
    pub tier: Tier,
    /// Why the planner picked [`SweepReport::tier`] — in particular,
    /// why a forced tier was degraded.
    pub tier_reason: TierReason,
    /// Time steps fused in this sweep (`1` for spatial sweeps).
    pub wavefront_depth: usize,
}

impl SweepReport {
    /// Whether the executed tier is a degradation — the planner dropped
    /// below what the fold or a forced policy asked for.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.tier_reason.degraded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::{box3d, heat3d, inverter_chain_rhs};

    #[test]
    fn policy_parsing_is_case_insensitive_and_strict() {
        assert_eq!(TierPolicy::parse("auto"), Some(TierPolicy::Auto));
        assert_eq!(TierPolicy::parse("Scalar"), Some(TierPolicy::ForceScalar));
        assert_eq!(TierPolicy::parse(" FOLDED "), Some(TierPolicy::ForceFolded));
        assert_eq!(TierPolicy::parse(""), None);
        assert_eq!(TierPolicy::parse("vector"), None);
        assert_eq!(TierPolicy::parse("folded8"), None);
    }

    fn query(s: &Stencil, p: &TuningParams) -> Plan {
        Plan::query(s, p, TierPolicy::Auto)
    }

    #[test]
    fn planner_prefers_folded_for_supported_lane_counts() {
        let s = heat3d(1);
        for lanes in [2usize, 4, 8, 16] {
            let p = TuningParams::new([8, 8, 8], Fold::new(lanes, 1, 1));
            assert_eq!(query(&s, &p).tier(), Tier::Folded, "lanes={lanes}");
        }
        // Unit fold and odd lane counts fall back to the scalar rows.
        for lanes in [1usize, 3, 5] {
            let p = TuningParams::new([8, 8, 8], Fold::new(lanes, 1, 1));
            let plan = query(&s, &p);
            assert_eq!(plan.tier(), Tier::Scalar, "lanes={lanes}");
            assert_eq!(plan.reason, TierReason::UnsupportedLanes, "lanes={lanes}");
        }
    }

    #[test]
    fn planner_uses_brick_kernel_for_multi_dim_folds() {
        let s = box3d(1);
        for fold in [Fold::new(4, 2, 1), Fold::new(2, 2, 2), Fold::new(1, 2, 1)] {
            let p = TuningParams::new([8, 8, 8], fold);
            let plan = query(&s, &p);
            assert_eq!(plan.tier(), Tier::Folded, "fold={fold}");
            assert!(plan.reason.as_str().contains("brick"), "{:?}", plan.reason);
        }
        // 3x3x1 has 9 elements: no monomorphised brick kernel.
        let p = TuningParams::new([8, 8, 8], Fold::new(3, 3, 1));
        assert_eq!(query(&s, &p).tier(), Tier::Generic);
    }

    #[test]
    fn planner_routes_tapes_by_layout_only() {
        let s = inverter_chain_rhs(5.0, 1.0, 2.0);
        let row = TuningParams::new([8, 1, 1], Fold::new(8, 1, 1));
        assert_eq!(query(&s, &row).tier(), Tier::Tape);
        let folded = TuningParams::new([8, 1, 1], Fold::new(4, 2, 1));
        assert_eq!(query(&s, &folded).tier(), Tier::Generic);
    }

    /// One row per [`TierReason`] variant: the plan of an input that
    /// yields it, its tier, whether it is a degradation, and its text.
    #[test]
    fn every_tier_reason_has_one_row() {
        use TierPolicy::{Auto, ForceFolded, ForceScalar};
        use TierReason as R;
        let (heat, tape) = (heat3d(1), inverter_chain_rhs(5.0, 1.0, 2.0));
        let (row, odd, unit) = (Fold::new(8, 1, 1), Fold::new(3, 1, 1), Fold::unit());
        let (brick, nine) = (Fold::new(4, 2, 1), Fold::new(3, 3, 1));
        let at = |s: &Stencil, fold: Fold, depth: usize, layouts: bool, policy: TierPolicy| {
            let p = TuningParams::new([8, 8, 8], fold).wavefront(depth);
            plan(&CompiledStencil::compile(s), &p, layouts, policy)
        };
        #[rustfmt::skip]
        let rows = [
            (R::LaneKernel, at(&heat, row, 1, true, Auto), Tier::Folded, false,
             "row-major fold: folded lane kernel"),
            (R::BrickKernel, at(&heat, brick, 1, true, Auto), Tier::Folded, false,
             "multi-dimensional fold: folded brick kernel"),
            (R::ForcedScalar, at(&heat, row, 1, true, ForceScalar), Tier::Scalar, false,
             "tier forced to scalar"),
            (R::TapeInterpreter, at(&tape, row, 1, true, Auto), Tier::Tape, false,
             "non-linear stencil: threaded tape interpreter"),
            (R::UnsupportedLanes, at(&heat, odd, 1, true, Auto), Tier::Scalar, true,
             "fold.x has no supported lane count: scalar row kernels"),
            (R::ForcedFoldedUnsupportedLanes, at(&heat, unit, 1, true, ForceFolded), Tier::Scalar,
             true, "folded tier forced but fold.x has no supported lane count: scalar row kernels"),
            (R::ForcedScalarNeedsRowMajor, at(&heat, brick, 1, true, ForceScalar), Tier::Generic,
             true,
             "tier forced to scalar but scalar row kernels need a row-major fold: generic path"),
            (R::BrickIneligible, at(&heat, nine, 1, true, Auto), Tier::Generic, true,
             "multi-dimensional fold ineligible for the brick kernel \
              (unsupported lane count or mismatched grid layouts): generic path"),
            (R::NonLinearFolded, at(&tape, brick, 1, true, Auto), Tier::Generic, true,
             "non-linear stencil on a multi-dimensional fold: per-point generic path"),
            (R::WavefrontNonLinear, at(&tape, row, 2, true, Auto), Tier::Generic, true,
             "non-linear stencil: per-point generic wavefront"),
            (R::WavefrontMismatchedLayouts, at(&heat, row, 2, false, Auto), Tier::Generic, true,
             "ping-pong buffers have mismatched layouts: per-point generic wavefront"),
            (R::WavefrontNeedsRowMajor, at(&heat, brick, 2, true, Auto), Tier::Generic, true,
             "wavefront folded tier requires a row-major fold: per-point generic wavefront"),
        ];
        let mut seen = std::collections::HashSet::new();
        for (reason, plan, tier, degraded, text) in rows {
            assert_eq!(plan.reason, reason);
            assert_eq!(plan.tier(), tier, "{reason:?}");
            assert_eq!(plan.reason.degraded(), degraded, "{reason:?}");
            assert_eq!(reason.as_str(), text);
            assert!(seen.insert(reason), "{reason:?} listed twice");
        }
    }

    #[test]
    fn forced_policies_degrade_with_recorded_reasons() {
        let s = heat3d(1);
        let compiled = CompiledStencil::compile(&s);
        // Scalar forced on a row-major fold: honoured.
        let row = TuningParams::new([8, 8, 8], Fold::new(8, 1, 1));
        let p = plan(&compiled, &row, true, TierPolicy::ForceScalar);
        assert_eq!(p.kernel, Kernel::Scalar);
        // Scalar forced on a multi-dim fold: no scalar row kernel exists,
        // degrade to generic and say why.
        let folded = TuningParams::new([8, 8, 8], Fold::new(4, 2, 1));
        let p = plan(&compiled, &folded, true, TierPolicy::ForceScalar);
        assert_eq!(p.kernel, Kernel::Generic);
        assert!(p.reason.as_str().contains("row-major"), "{:?}", p.reason);
        // Folded forced on a unit fold: no lanes to vectorise.
        let unit = TuningParams::new([8, 8, 8], Fold::unit());
        let p = plan(&compiled, &unit, true, TierPolicy::ForceFolded);
        assert_eq!(p.kernel, Kernel::Scalar);
        assert!(p.reason.as_str().contains("lane count"), "{:?}", p.reason);
        // Brick kernel needs shared grid geometry.
        let p = plan(&compiled, &folded, false, TierPolicy::Auto);
        assert_eq!(p.kernel, Kernel::Generic);
    }
}
