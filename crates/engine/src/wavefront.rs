//! Wavefront temporal blocking (time skewing along z).
//!
//! A wavefront sweep performs `wf` Jacobi time steps in one pass over the
//! domain: plane `z` of time level `s+1` is computed as soon as the planes
//! it needs from level `s` are ready, with a skew of `shift = max(r_z, 1)`
//! planes per level. Two ping-pong buffers suffice for any depth because
//! the skew guarantees a level-`s-1` plane is dead before level `s+1`
//! overwrites it. Temporal blocking multiplies the arithmetic per memory
//! byte by `wf`, lifting the bandwidth ceiling — the paper's key lever for
//! memory-bound ODE stages.
//!
//! The native path composes all three YASK levers, as the paper does:
//! each skewed plane update runs through the same allocation-free linear
//! row kernels as a spatial [`crate::SweepRequest::apply`], tiled in x/y by
//! `params.block`, and the plane's rows are decomposed into
//! `params.threads` contiguous chunks executed on the persistent
//! [`ExecPool`]. The per-point operation order is identical to the plain
//! stepper's, so a depth-`wf` wavefront bitwise-matches `wf` plain
//! sweeps.

use yasksite_grid::Grid3;
use yasksite_stencil::Stencil;

use crate::compile::CompiledStencil;
use crate::error::EngineError;
use crate::native::{execute_apply, Geom, LinearKernel, Sink};
use crate::params::{chunk_ranges, TuningParams};
use crate::pool::{ExecPool, ScopedJob};
use crate::profile::SweepProfiler;
use crate::simulate::{apply_simulated, touch_row, Groups, RowAccess, SimContext};
use crate::sweep::{plan, Kernel, Plan, TierPolicy};

fn wavefront_checks(
    stencil: &Stencil,
    a: &Grid3,
    b: &Grid3,
    params: &TuningParams,
) -> Result<(usize, usize), EngineError> {
    if stencil.num_inputs() != 1 {
        return Err(EngineError::Unsupported {
            reason: "wavefront needs a single-input (ping-pong) stencil".into(),
        });
    }
    stencil.check_bindings(&[a], b)?;
    stencil.check_bindings(&[b], a)?;
    params
        .validate(a.n())
        .map_err(|reason| EngineError::BadParams { reason })?;
    let info = stencil.info();
    let shift = info.radius[2].max(1);
    Ok((params.wavefront, shift))
}

/// The wavefront executor behind [`crate::SweepRequest::run_wavefront`].
/// Performs `params.wavefront` time steps in one skewed sweep and
/// returns `(widest chunk count, plan)`. Depth one is a spatial sweep
/// and runs through [`execute_apply`].
///
/// Linear stencils on matching row-major layouts take the fast path:
/// each plane update is tiled in x/y by `params.block` and its rows are
/// split into `params.threads` chunks run on the pool — through the
/// folded lane kernel when the fold's x-lane count is supported, the
/// scalar row kernels otherwise. Everything else falls back to the
/// per-point generic loop (see [`plan`]). Halo values of both buffers
/// are left untouched (fixed-value boundary), matching how the plain
/// steppers treat them.
pub(crate) fn execute_wavefront(
    pool: &ExecPool,
    stencil: &Stencil,
    a: &mut Grid3,
    b: &mut Grid3,
    params: &TuningParams,
    prof: &SweepProfiler,
    policy: TierPolicy,
) -> Result<(usize, Plan), EngineError> {
    let (wf, shift) = wavefront_checks(stencil, a, b, params)?;
    if wf == 1 {
        let (run, plan) = execute_apply(pool, stencil, &[&*a], b, params, prof, policy)?;
        a.swap_data(b).expect("ping-pong pair has identical layout");
        return Ok((run.threads_used, plan));
    }
    let t_compile = prof.start();
    let compiled = CompiledStencil::compile(stencil);
    prof.phase_done("compile", t_compile);
    let n = a.n();
    // The fast path splits plane storage into contiguous row chunks, so
    // both buffers must really be row-major with identical layouts.
    let layouts_match = a.fold() == params.fold
        && b.fold() == params.fold
        && a.halo() == b.halo()
        && a.alloc() == b.alloc();
    let plan = plan(&compiled, params, layouts_match, policy);
    let lanes = match plan.kernel {
        Kernel::Lanes(lanes) => Some(lanes),
        Kernel::Scalar => Some(0),
        Kernel::Brick(_) | Kernel::Tape | Kernel::Generic => None,
    };
    let zmax = n[2] + (wf - 1) * shift;
    let mut widest = 1usize;
    prof.pool_window(pool.stats());
    let t_wavefront = prof.start();
    for zt in 0..zmax {
        for s in 0..wf {
            let Some(z) = zt.checked_sub(s * shift) else {
                break;
            };
            if z >= n[2] {
                continue;
            }
            let (src, dst): (&Grid3, &mut Grid3) = if s % 2 == 0 {
                (&*a, &mut *b)
            } else {
                (&*b, &mut *a)
            };
            let t_plane = prof.start();
            if let Some(lanes) = lanes {
                let (terms, constant) = compiled.linear_terms().expect("fast implies linear");
                let used = wavefront_plane(pool, terms, constant, src, dst, z, params, prof, lanes);
                widest = widest.max(used);
            } else {
                for j in 0..n[1] as isize {
                    for i in 0..n[0] as isize {
                        let v = compiled.eval_at(&[src], i, j, z as isize);
                        dst.set(i, j, z as isize, v);
                    }
                }
            }
            prof.plane_done(t_plane);
        }
    }
    prof.phase_done("wavefront", t_wavefront);
    prof.pool_window(pool.stats());
    if wf % 2 == 1 {
        a.swap_data(b).expect("ping-pong pair has identical layout");
    }
    Ok((widest, plan))
}

/// One skewed plane update `dst[·,·,z] = stencil(src)` through the
/// allocation-free linear row kernels (`lanes` selects the folded lane
/// kernel, `0` the scalar rows): x/y spatial blocking from
/// `params.block`, rows decomposed into `params.threads` contiguous
/// chunks at y-block boundaries, chunks run on the pool. Returns the
/// number of chunks that received work.
#[allow(clippy::too_many_arguments)] // internal helper; one call site per path
fn wavefront_plane(
    pool: &ExecPool,
    terms: &[((usize, [i32; 3]), f64)],
    constant: f64,
    src: &Grid3,
    dst: &mut Grid3,
    z: usize,
    params: &TuningParams,
    prof: &SweepProfiler,
    lanes: usize,
) -> usize {
    let n = dst.n();
    let block = params.clipped_block(n);
    let sub = params.sub_block.unwrap_or(block).map(|e| e.max(1));
    let kernel = LinearKernel::build(terms, constant, &[src], lanes);
    let out_geom = Geom::of(dst);
    let (ax, ay) = (out_geom.ax as usize, out_geom.ay as usize);
    let (hy, hz) = (out_geom.hy as usize, out_geom.hz as usize);
    let plane_start = (z + hz) * ax * ay;
    let plane = &mut dst.as_mut_slice()[plane_start..plane_start + ax * ay];

    // Contiguous row chunks at y-block boundaries; the chunk count
    // depends only on params, never on the pool width.
    let nblocks_y = n[1].div_ceil(block[1]);
    let kernel = &kernel;
    let mut jobs: Vec<ScopedJob<'_>> = Vec::new();
    let mut rest = plane;
    let mut consumed = 0usize; // storage rows of this plane handed out
    for (jb0, jb1) in chunk_ranges(nblocks_y, params.threads) {
        let j0 = jb0 * block[1];
        let j1 = (jb1 * block[1]).min(n[1]);
        let first_row = j0 + hy;
        let last_row = j1 + hy;
        let skip = (first_row - consumed) * ax;
        let take = (last_row - first_row) * ax;
        let (before, after) = rest.split_at_mut(skip + take);
        rest = after;
        consumed = last_row;
        let win = &mut before[skip..];
        let win_base = (plane_start + first_row * ax) as isize;
        jobs.push(Box::new(move || {
            let t0 = prof.start();
            let mut sink = Sink {
                win,
                base: win_base,
                geom: out_geom,
            };
            kernel.apply_blocked(&mut sink, (z, z + 1), (j0, j1), (0, n[0]), block, sub);
            prof.chunk_done(t0);
        }) as ScopedJob<'_>);
    }
    let used = jobs.len();
    pool.run(jobs);
    used
}

/// Simulated counterpart of the native wavefront executor: walks the identical
/// skewed plane order, issuing the touched cache lines to the context's
/// hierarchy. Planes are decomposed over the context's cores along y.
///
/// # Errors
/// Same conditions as the native variant, plus a core-count mismatch
/// between `ctx` and `params.threads`.
#[allow(clippy::needless_range_loop)]
pub fn run_wavefront_simulated(
    stencil: &Stencil,
    a: &Grid3,
    b: &Grid3,
    params: &TuningParams,
    ctx: &mut SimContext,
) -> Result<(), EngineError> {
    let (wf, shift) = wavefront_checks(stencil, a, b, params)?;
    if wf == 1 {
        // Plain spatial sweep.
        return apply_simulated(stencil, &[a], b, params, ctx);
    }
    if ctx.cores() != params.threads {
        return Err(EngineError::BadParams {
            reason: format!(
                "context has {} cores, params ask for {}",
                ctx.cores(),
                params.threads
            ),
        });
    }
    let groups = Groups::of(stencil);
    let info = stencil.info();
    let ic = yasksite_ecm::incore::incore(&info, &ctx.machine().ports, params.fold);
    let n = a.n();
    let cores = ctx.cores();
    let zmax = n[2] + (wf - 1) * shift;
    let mut units = vec![0u64; cores];
    for zt in 0..zmax {
        for s in 0..wf {
            let Some(z) = zt.checked_sub(s * shift) else {
                break;
            };
            if z >= n[2] {
                continue;
            }
            let (src, dst) = if s % 2 == 0 { (a, b) } else { (b, a) };
            for c in 0..cores {
                let j0 = c * n[1] / cores;
                let j1 = (c + 1) * n[1] / cores;
                for j in j0..j1 {
                    let mut i = 0usize;
                    while i < n[0] {
                        let iend = (i + 8).min(n[0]) - 1;
                        for &(_, dy, dz, lo, hi) in &groups.read {
                            touch_row(
                                &mut ctx.hierarchy,
                                c,
                                src,
                                i as isize + lo as isize,
                                iend as isize + hi as isize,
                                j as isize + dy as isize,
                                z as isize + dz as isize,
                                RowAccess::Read,
                            );
                        }
                        touch_row(
                            &mut ctx.hierarchy,
                            c,
                            dst,
                            i as isize,
                            iend as isize,
                            j as isize,
                            z as isize,
                            RowAccess::Write,
                        );
                        units[c] += 1;
                        i = iend + 1;
                    }
                }
            }
        }
    }
    ctx.add_incore(&units, ic.t_nol, ic.t_ol);
    ctx.add_updates(wf as u64 * (n[0] * n[1] * n[2]) as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepRequest, Tier};
    use yasksite_arch::Machine;
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::{heat3d, wave2d};

    fn stepper_reference(stencil: &Stencil, a0: &Grid3, steps: usize) -> Grid3 {
        let mut a = a0.clone();
        let mut b = a0.clone();
        for _ in 0..steps {
            let mut tmp = Grid3::new("tmp", a.n(), a.halo(), a.fold());
            tmp.fill_halo(0.0);
            stencil.apply_reference(&[&a], &mut tmp).unwrap();
            // Keep halos identical to the wavefront path (fixed values).
            for k in 0..a.n()[2] as isize {
                for j in 0..a.n()[1] as isize {
                    for i in 0..a.n()[0] as isize {
                        b.set(i, j, k, tmp.get(i, j, k));
                    }
                }
            }
            std::mem::swap(&mut a, &mut b);
        }
        a
    }

    fn initial(n: [usize; 3]) -> Grid3 {
        let mut g = Grid3::new("a", n, [1, 1, 1], Fold::new(8, 1, 1));
        g.fill_with(|i, j, k| ((i * 3 + j * 5 + k * 7) % 11) as f64 * 0.1);
        g.fill_halo(0.0);
        g
    }

    #[test]
    fn wavefront_matches_sequential_steps() {
        let s = heat3d(1);
        let n = [16, 6, 10];
        for wf in [1, 2, 3, 4, 5] {
            let a0 = initial(n);
            let want = stepper_reference(&s, &a0, wf);
            let mut a = a0.clone();
            let mut b = a0.clone();
            b.fill_halo(0.0);
            let p = TuningParams::new([16, 6, 10], Fold::new(8, 1, 1)).wavefront(wf);
            let report = SweepRequest::new(&p)
                .tier(TierPolicy::Auto)
                .run_wavefront(&s, &mut a, &mut b)
                .unwrap();
            assert_eq!(report.tier, Tier::Folded);
            assert_eq!(report.wavefront_depth, wf);
            assert_eq!(report.updates, (16 * 6 * 10 * wf) as u64);
            assert!(
                a.max_abs_diff(&want).unwrap() < 1e-12,
                "wavefront depth {wf} diverges"
            );
        }
    }

    #[test]
    fn folded_wavefront_is_bitwise_identical_to_scalar_wavefront() {
        let s = heat3d(1);
        let n = [24, 13, 11];
        let run = |policy: TierPolicy, lanes: usize| {
            let fold = Fold::new(lanes, 1, 1);
            let mut a = Grid3::new("a", n, [1, 1, 1], fold);
            a.fill_with(|i, j, k| ((i * 3 + j * 5 + k * 7) % 11) as f64 * 0.1);
            a.fill_halo(0.0);
            let mut b = a.clone();
            let p = TuningParams::new([8, 4, 4], fold).wavefront(3).threads(2);
            let report = SweepRequest::new(&p)
                .tier(policy)
                .run_wavefront(&s, &mut a, &mut b)
                .unwrap();
            (a, report.tier)
        };
        for lanes in [2usize, 4, 8, 16] {
            let (scalar, ts) = run(TierPolicy::ForceScalar, lanes);
            assert_eq!(ts, Tier::Scalar);
            let (folded, tf) = run(TierPolicy::ForceFolded, lanes);
            assert_eq!(tf, Tier::Folded, "lanes={lanes}");
            assert_eq!(scalar.max_abs_diff(&folded).unwrap(), 0.0, "lanes={lanes}");
        }
    }

    #[test]
    fn threaded_wavefront_is_bitwise_identical_to_single_thread() {
        let s = heat3d(1);
        let n = [24, 13, 11];
        let wf = 3;
        let run = |threads: usize, block: [usize; 3]| {
            let mut a = initial(n);
            let mut b = initial(n);
            let p = TuningParams::new(block, Fold::new(8, 1, 1))
                .wavefront(wf)
                .threads(threads);
            let report = SweepRequest::new(&p)
                .tier(TierPolicy::Auto)
                .run_wavefront(&s, &mut a, &mut b)
                .unwrap();
            (a, report.threads_used)
        };
        let (base, base_used) = run(1, [8, 4, 4]);
        assert_eq!(base_used, 1);
        for threads in [2, 4, 7] {
            let (got, used) = run(threads, [8, 4, 4]);
            assert!(used >= 1 && used <= threads);
            assert_eq!(base.max_abs_diff(&got).unwrap(), 0.0, "threads={threads}");
        }
        // Blocking must not change values either.
        let (odd_blocks, _) = run(3, [5, 3, 2]);
        assert_eq!(base.max_abs_diff(&odd_blocks).unwrap(), 0.0);
    }

    #[test]
    fn profiled_wavefront_is_bitwise_identical_and_records_planes() {
        let s = heat3d(1);
        let n = [16, 8, 10];
        let wf = 3;
        let p = TuningParams::new([8, 4, 4], Fold::new(8, 1, 1))
            .wavefront(wf)
            .threads(2);
        let run = |prof: &SweepProfiler| {
            let mut a = initial(n);
            let mut b = initial(n);
            SweepRequest::new(&p)
                .tier(TierPolicy::Auto)
                .profiler(prof)
                .run_wavefront(&s, &mut a, &mut b)
                .unwrap();
            a
        };
        let plain = run(&SweepProfiler::disabled());
        let prof = SweepProfiler::enabled();
        let profiled = run(&prof);
        assert_eq!(plain.max_abs_diff(&profiled).unwrap(), 0.0);
        let r = prof.report();
        assert!(r.phases.iter().any(|ph| ph.name == "wavefront"));
        let planes = r.planes.expect("plane timings recorded");
        assert_eq!(planes.count as usize, wf * n[2]);
        let chunks = r.chunks.expect("chunk timings recorded");
        assert!(chunks.count >= planes.count);
        assert!(r.pool.is_some());
    }

    #[test]
    fn wavefront_rejects_two_input_stencils() {
        let s = wave2d(0.3);
        let mut a = Grid3::new("a", [8, 8, 1], [1, 1, 0], Fold::new(8, 1, 1));
        let mut b = a.clone();
        for depth in [1, 2] {
            let p = TuningParams::new([8, 8, 1], Fold::new(8, 1, 1)).wavefront(depth);
            assert!(matches!(
                SweepRequest::new(&p).run_wavefront(&s, &mut a, &mut b),
                Err(EngineError::Unsupported { .. })
            ));
        }
    }

    #[test]
    fn mismatched_layouts_fall_back_to_generic_path() {
        // b allocates a wider halo than a: the fast path's identical
        // -layout precondition fails, the generic path must still give
        // the right answer and the report must say so.
        let s = heat3d(1);
        let n = [12, 6, 8];
        let a0 = initial(n);
        let want = stepper_reference(&s, &a0, 2);
        let mut a = a0.clone();
        let mut b = Grid3::new("b", n, [2, 2, 2], Fold::new(8, 1, 1));
        b.fill_halo(0.0);
        let p = TuningParams::new([12, 6, 8], Fold::new(8, 1, 1))
            .wavefront(2)
            .threads(2);
        let report = SweepRequest::new(&p)
            .tier(TierPolicy::Auto)
            .run_wavefront(&s, &mut a, &mut b)
            .unwrap();
        assert_eq!(
            report.threads_used, 1,
            "generic fallback is single-threaded"
        );
        assert_eq!(report.tier, Tier::Generic);
        assert!(report.tier_reason.as_str().contains("mismatched layouts"));
        assert!(a.max_abs_diff(&want).unwrap() < 1e-12);
    }

    /// A scaled-down Cascade-Lake-like machine whose LLC the test domain
    /// overflows, so the wavefront benefit shows at test-friendly sizes.
    fn shrunken_clx() -> Machine {
        let mut m = Machine::cascade_lake();
        m.kind = yasksite_arch::MachineKind::Custom;
        m.cores_per_socket = 4;
        m.caches[1].size_bytes = 128 * 1024;
        m.caches[2].size_bytes = 1024 * 1024;
        m.caches[2].assoc = 16;
        m.validate().unwrap();
        m
    }

    #[test]
    fn simulated_wavefront_cuts_memory_traffic() {
        let m = shrunken_clx();
        let s = heat3d(1);
        // 2 grids x 1 MiB: well beyond the shrunken 1 MiB LLC.
        let n = [128, 32, 32];
        let wf = 4;
        let mut mem = Vec::new();
        for depth in [1usize, wf] {
            let a = initial(n);
            let b = initial(n);
            let p = TuningParams::new([128, 8, 8], Fold::new(8, 1, 1)).wavefront(depth);
            let mut ctx = SimContext::new(&m, 1);
            // Equal total time steps: wf steps as either wf plain sweeps
            // or one wavefront sweep.
            if depth == 1 {
                let mut x = a.clone();
                let mut y = b.clone();
                for _ in 0..wf {
                    apply_simulated(&s, &[&x], &y, &p, &mut ctx).unwrap();
                    x.swap_data(&mut y).unwrap();
                }
            } else {
                run_wavefront_simulated(&s, &a, &b, &p, &mut ctx).unwrap();
            }
            let run = ctx.finish();
            assert_eq!(run.updates, (wf * n[0] * n[1] * n[2]) as u64);
            mem.push(run.stats.mem_read_lines + run.stats.mem_write_lines);
        }
        assert!(
            (mem[1] as f64) < mem[0] as f64 * 0.6,
            "wavefront should cut memory traffic: {} vs {}",
            mem[1],
            mem[0]
        );
    }

    #[test]
    fn simulated_wavefront_multicore_runs() {
        let m = Machine::cascade_lake();
        let s = heat3d(1);
        let n = [64, 32, 16];
        let a = initial(n);
        let b = initial(n);
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1))
            .wavefront(3)
            .threads(4);
        let mut ctx = SimContext::new(&m, 4);
        run_wavefront_simulated(&s, &a, &b, &p, &mut ctx).unwrap();
        let run = ctx.finish();
        assert_eq!(run.updates, (3 * 64 * 32 * 16) as u64);
        for c in 0..4 {
            assert!(run.stats.boundary_lines[0][c] > 0);
        }
    }
}
