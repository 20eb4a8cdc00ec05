//! The stencil kernel engine — this reproduction's stand-in for Intel YASK.
//!
//! YASK turns a stencil specification into an optimised kernel with a fixed
//! loop structure: the domain is cut into *blocks* (cache blocking), blocks
//! are visited by OpenMP threads, and inside a block the traversal runs
//! x-innermost over vector-folded bricks. Optionally, *wavefront temporal
//! blocking* sweeps several time steps through the domain in one pass.
//! This crate reimplements that structure with three interchangeable
//! execution backends:
//!
//! * **native** ([`SweepRequest::apply`], [`SweepRequest::run_wavefront`]):
//!   really runs the kernel on the host through a specialisation ladder —
//!   the explicitly vectorised folded tier, the scalar row kernels, the
//!   compiled tape interpreter, or the layout-agnostic generic path —
//!   and reports which tier executed; used for host measurements and as
//!   the correctness oracle's subject.
//! * **simulated** ([`apply_simulated`], [`run_wavefront_simulated`]):
//!   walks the *same* iteration order but issues the touched cache lines
//!   to [`yasksite_memsim::MemHierarchy`], producing the "measured"
//!   numbers for the paper's Cascade Lake and Rome configurations.
//! * **codegen** ([`codegen`]): emits the C kernel source YASK would
//!   generate for the configuration, for inspection and generation-cost
//!   accounting.
//!
//! # Examples
//!
//! ```
//! use yasksite_engine::{SweepRequest, Tier, TierPolicy, TuningParams};
//! use yasksite_grid::{Fold, Grid3};
//! use yasksite_stencil::builders::heat3d;
//!
//! let s = heat3d(1);
//! let mut u = Grid3::new("u", [32, 32, 32], [1, 1, 1], Fold::new(8, 1, 1));
//! u.fill_with(|i, j, k| (i + j + k) as f64);
//! let mut out = Grid3::new("out", [32, 32, 32], [1, 1, 1], Fold::new(8, 1, 1));
//! let params = TuningParams::new([32, 8, 8], Fold::new(8, 1, 1));
//! let report = SweepRequest::new(&params)
//!     .tier(TierPolicy::Auto)
//!     .apply(&s, &[&u], &mut out)?;
//! assert!(report.seconds >= 0.0);
//! assert_eq!(report.tier, Tier::Folded);
//! # Ok::<(), yasksite_engine::EngineError>(())
//! ```

// Unsafe is denied crate-wide; the single exception is the worker pool's
// lifetime erasure of scoped jobs (see `pool.rs` for the allow and the
// documented soundness argument).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod codegen;
mod compile;
mod error;
mod fold_tier;
mod native;
mod params;
mod pool;
mod profile;
mod simulate;
mod sweep;
mod wavefront;

pub use codegen::{codegen, CodegenOutput};
pub use compile::CompiledStencil;
pub use error::EngineError;
pub use params::TuningParams;
pub use pool::{ExecPool, PoolStats, ScopedJob};
pub use profile::{IntervalStats, PhaseStat, PoolWindow, ProfileReport, SweepProfiler};
pub use simulate::{apply_simulated, SimContext, SimulatedRun};
pub use sweep::{Plan, SweepReport, SweepRequest, Tier, TierPolicy, TierReason, FORCE_TIER_ENV};
pub use wavefront::run_wavefront_simulated;
