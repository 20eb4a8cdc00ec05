//! Native (host) execution backend.
//!
//! The hot paths here are written so the inner loops are allocation-free
//! and bounds-check-free: term descriptors are gathered once per sweep,
//! each row of output is produced from pre-sliced source rows, and the
//! common stencil arities (2/7/9/27 terms, plus 1) are monomorphised
//! through a const-generic row kernel that LLVM can unroll and
//! vectorise. Threading goes through the persistent [`ExecPool`] instead
//! of spawning OS threads per sweep.

use std::time::Instant;

use yasksite_grid::Grid3;
use yasksite_stencil::Stencil;

use crate::compile::{CompiledStencil, Tape};
use crate::error::EngineError;
use crate::fold_tier::brick_fast_path;
use crate::params::{chunk_ranges, TuningParams};
use crate::pool::{ExecPool, ScopedJob};
use crate::profile::SweepProfiler;
use crate::sweep::{plan, Kernel, Plan, TierPolicy};

/// Result of one native kernel application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NativeRun {
    /// Wall time of the sweep.
    pub seconds: f64,
    /// Achieved million lattice updates per second.
    pub mlups: f64,
    /// Lattice updates performed.
    pub updates: u64,
    /// Threads that actually received work: the number of non-empty
    /// slabs the sweep was decomposed into (≤ `params.threads`; small
    /// domains produce fewer slabs than requested threads). Row-major
    /// layouts split into z-plane slabs, the folded brick tier into
    /// brick-z slabs.
    ///
    /// The layout-generic path reports `1` deliberately: it walks the
    /// grid through per-point accessors with no contiguous storage
    /// window to hand each worker, so it runs single-threaded and says
    /// so rather than echoing `params.threads` back.
    pub threads_used: usize,
}

/// Validates that all grids carry the fold the parameters assume.
fn check_folds(inputs: &[&Grid3], out: &Grid3, params: &TuningParams) -> Result<(), EngineError> {
    for g in inputs.iter().copied().chain(std::iter::once(out)) {
        if g.fold() != params.fold {
            return Err(EngineError::BadParams {
                reason: format!(
                    "grid '{}' has fold {}, params say {}",
                    g.name(),
                    g.fold(),
                    params.fold
                ),
            });
        }
    }
    Ok(())
}

/// The spatial-sweep executor behind [`crate::SweepRequest::apply`]:
/// validates, compiles, plans the tier under `policy`, and dispatches to
/// the matching kernel.
///
/// Tier selection never changes results — every tier computes each
/// output point with the identical FP operation order. Threaded tiers
/// honour `params.threads` with a decomposition that depends only on
/// `(domain, params.threads)`, never on the pool width, so results are
/// bitwise identical for any pool.
pub(crate) fn execute_apply(
    pool: &ExecPool,
    stencil: &Stencil,
    inputs: &[&Grid3],
    out: &mut Grid3,
    params: &TuningParams,
    prof: &SweepProfiler,
    policy: TierPolicy,
) -> Result<(NativeRun, Plan), EngineError> {
    stencil.check_bindings(inputs, out)?;
    params
        .validate(out.n())
        .map_err(|reason| EngineError::BadParams { reason })?;
    check_folds(inputs, out, params)?;

    let t_compile = prof.start();
    let compiled = CompiledStencil::compile(stencil);
    prof.phase_done("compile", t_compile);
    let layouts_match = inputs
        .iter()
        .all(|g| g.alloc() == out.alloc() && g.halo() == out.halo());
    let plan = plan(&compiled, params, layouts_match, policy);
    let updates = out.domain_points() as u64;
    prof.pool_window(pool.stats());
    let t_sweep = prof.start();
    let start = Instant::now();
    let threads_used = match plan.kernel {
        Kernel::Lanes(lanes) => {
            let (terms, constant) = compiled.linear_terms().expect("lane plan implies linear");
            linear_fast_path(pool, terms, constant, inputs, out, params, prof, lanes)
        }
        Kernel::Scalar => {
            let (terms, constant) = compiled.linear_terms().expect("scalar plan implies linear");
            linear_fast_path(pool, terms, constant, inputs, out, params, prof, 0)
        }
        Kernel::Brick(elems) => {
            let (terms, constant) = compiled.linear_terms().expect("brick plan implies linear");
            match elems {
                2 => brick_fast_path::<2>(pool, terms, constant, inputs, out, params, prof),
                4 => brick_fast_path::<4>(pool, terms, constant, inputs, out, params, prof),
                8 => brick_fast_path::<8>(pool, terms, constant, inputs, out, params, prof),
                16 => brick_fast_path::<16>(pool, terms, constant, inputs, out, params, prof),
                _ => unreachable!("planner only emits supported brick sizes"),
            }
        }
        Kernel::Tape => {
            let CompiledStencil::Tape(tape) = &compiled else {
                unreachable!("tape plan implies tape stencil")
            };
            tape_fast_path(pool, tape, inputs, out, params, prof)
        }
        Kernel::Generic => {
            generic_path(&compiled, inputs, out, params);
            1
        }
    };
    let seconds = start.elapsed().as_secs_f64();
    prof.phase_done("sweep", t_sweep);
    prof.pool_window(pool.stats());
    Ok((
        NativeRun {
            seconds,
            mlups: updates as f64 / seconds.max(1e-12) / 1e6,
            updates,
            threads_used,
        },
        plan,
    ))
}

/// Row-major storage geometry of a grid.
#[derive(Clone, Copy)]
pub(crate) struct Geom {
    pub(crate) ax: isize,
    pub(crate) ay: isize,
    pub(crate) hx: isize,
    pub(crate) hy: isize,
    pub(crate) hz: isize,
}

impl Geom {
    pub(crate) fn of(g: &Grid3) -> Geom {
        let a = g.alloc();
        let h = g.halo();
        Geom {
            ax: a[0] as isize,
            ay: a[1] as isize,
            hx: h[0] as isize,
            hy: h[1] as isize,
            hz: h[2] as isize,
        }
    }

    /// Storage index of domain point `(0, j, k)`.
    #[inline]
    pub(crate) fn row_base(&self, j: isize, k: isize) -> isize {
        ((k + self.hz) * self.ay + (j + self.hy)) * self.ax + self.hx
    }

    /// Element offset of a stencil access `(dx, dy, dz)`.
    #[inline]
    pub(crate) fn offset_of(&self, o: [i32; 3]) -> isize {
        (o[2] as isize * self.ay + o[1] as isize) * self.ax + o[0] as isize
    }
}

/// A linear stencil lowered against a concrete set of input grids: one
/// geometry/offset/coefficient/slice record per term, gathered **once**
/// per sweep so the per-row work is pure arithmetic on pre-resolved
/// slices.
pub(crate) struct LinearKernel<'a> {
    geoms: Vec<Geom>,
    offs: Vec<isize>,
    coeffs: Vec<f64>,
    srcs: Vec<&'a [f64]>,
    constant: f64,
    /// Lane width of the folded lane kernel (`0` = scalar row kernels).
    /// Set by the tier planner; the supported widths are monomorphised
    /// in [`LinearKernel::row`].
    lanes: usize,
}

impl<'a> LinearKernel<'a> {
    pub(crate) fn build(
        terms: &[((usize, [i32; 3]), f64)],
        constant: f64,
        inputs: &[&'a Grid3],
        lanes: usize,
    ) -> LinearKernel<'a> {
        let input_geoms: Vec<Geom> = inputs.iter().map(|g| Geom::of(g)).collect();
        let mut k = LinearKernel {
            geoms: Vec::with_capacity(terms.len()),
            offs: Vec::with_capacity(terms.len()),
            coeffs: Vec::with_capacity(terms.len()),
            srcs: Vec::with_capacity(terms.len()),
            constant,
            lanes,
        };
        for ((g, o), c) in terms {
            let ge = input_geoms[*g];
            k.geoms.push(ge);
            k.offs.push(ge.offset_of(*o));
            k.coeffs.push(*c);
            k.srcs.push(inputs[*g].as_slice());
        }
        k
    }

    /// Applies the kernel over domain points `kr × jr × ir` with the
    /// YASK block/sub-block traversal, writing through `sink`. The caller
    /// guarantees the sink's window covers every written row.
    pub(crate) fn apply_blocked(
        &self,
        sink: &mut Sink<'_>,
        kr: (usize, usize),
        jr: (usize, usize),
        ir: (usize, usize),
        block: [usize; 3],
        sub: [usize; 3],
    ) {
        blocked_nest(kr, jr, ir, block, sub, |k, j, i0, i1| {
            self.row(sink, k, j, i0, i1);
        });
    }

    /// One output row segment: the folded lane kernel when the planner
    /// set a lane width, else the monomorphised scalar kernel for the
    /// common arities, the dynamic loop otherwise. The dispatch is a
    /// perfectly predicted branch per row; the inner loops carry no
    /// allocation and no bounds checks.
    #[inline]
    fn row(&self, sink: &mut Sink<'_>, k: usize, j: usize, i0: usize, i1: usize) {
        match self.lanes {
            2 => self.row_lanes::<2>(sink, k, j, i0, i1),
            4 => self.row_lanes::<4>(sink, k, j, i0, i1),
            8 => self.row_lanes::<8>(sink, k, j, i0, i1),
            16 => self.row_lanes::<16>(sink, k, j, i0, i1),
            _ => match self.coeffs.len() {
                1 => self.row_spec::<1>(sink, k, j, i0, i1),
                2 => self.row_spec::<2>(sink, k, j, i0, i1),
                7 => self.row_spec::<7>(sink, k, j, i0, i1),
                9 => self.row_spec::<9>(sink, k, j, i0, i1),
                27 => self.row_spec::<27>(sink, k, j, i0, i1),
                _ => self.row_dyn(sink, k, j, i0, i1),
            },
        }
    }

    /// Folded lane kernel: processes the row in `L`-wide column chunks
    /// with explicit wide accumulators (`[f64; L]` blocks LLVM lowers to
    /// vector registers), working for *any* term count — including the
    /// dynamic arities the scalar ladder relegates to [`Self::row_dyn`]'s
    /// read-modify-write loop. Terms are consumed in stripes of up to 16
    /// so per-term row bases live in fixed stack arrays (no allocation);
    /// within a chunk the accumulators stay in registers across the whole
    /// stripe, so `dst` is touched once per stripe instead of once per
    /// term. The per-point accumulation order
    /// (`constant, +term₀, +term₁, …`) is strictly preserved across
    /// stripes and the scalar tail, so results are bitwise identical to
    /// the scalar kernels.
    fn row_lanes<const L: usize>(
        &self,
        sink: &mut Sink<'_>,
        k: usize,
        j: usize,
        i0: usize,
        i1: usize,
    ) {
        const STRIPE: usize = 16;
        let len = i1 - i0;
        let ob = (sink.geom.row_base(j as isize, k as isize) - sink.base) as usize + i0;
        let dst = &mut sink.win[ob..ob + len];
        let nt = self.coeffs.len();
        if nt == 0 {
            dst.fill(self.constant);
            return;
        }
        let mut t0 = 0usize;
        while t0 < nt {
            let t1 = (t0 + STRIPE).min(nt);
            let ns = t1 - t0;
            // Pre-slice every term row of this stripe to the exact
            // segment length: the chunk loops below index fixed-length
            // local slices, so the bounds checks vanish and the source
            // pointers stay in registers instead of being re-fetched
            // from the descriptor Vecs per chunk.
            let mut rows: [&[f64]; STRIPE] = [&[]; STRIPE];
            let mut coeffs = [0.0f64; STRIPE];
            for s in 0..ns {
                let base = (self.geoms[t0 + s].row_base(j as isize, k as isize) + self.offs[t0 + s])
                    as usize
                    + i0;
                rows[s] = &self.srcs[t0 + s][base..base + len];
                coeffs[s] = self.coeffs[t0 + s];
            }
            let first = t0 == 0;
            let mut ci = 0usize;
            // Cluster of two folds per iteration: two independent wide
            // accumulators hide FMA latency across the term chain and
            // halve the loop overhead. Each point still accumulates its
            // terms in stripe order, so clustering never changes a bit.
            while ci + 2 * L <= len {
                let mut a0 = [self.constant; L];
                let mut a1 = [self.constant; L];
                if !first {
                    a0.copy_from_slice(&dst[ci..ci + L]);
                    a1.copy_from_slice(&dst[ci + L..ci + 2 * L]);
                }
                for s in 0..ns {
                    let src = &rows[s][ci..ci + 2 * L];
                    let c = coeffs[s];
                    for l in 0..L {
                        a0[l] += c * src[l];
                    }
                    for l in 0..L {
                        a1[l] += c * src[L + l];
                    }
                }
                dst[ci..ci + L].copy_from_slice(&a0);
                dst[ci + L..ci + 2 * L].copy_from_slice(&a1);
                ci += 2 * L;
            }
            while ci + L <= len {
                let mut acc = [self.constant; L];
                if !first {
                    acc.copy_from_slice(&dst[ci..ci + L]);
                }
                for s in 0..ns {
                    let src = &rows[s][ci..ci + L];
                    let c = coeffs[s];
                    for (a, v) in acc.iter_mut().zip(src) {
                        *a += c * v;
                    }
                }
                dst[ci..ci + L].copy_from_slice(&acc);
                ci += L;
            }
            // Scalar tail for the sub-lane remainder, same op order.
            for (di, d) in dst.iter_mut().enumerate().skip(ci) {
                let mut acc = if first { self.constant } else { *d };
                for s in 0..ns {
                    acc += coeffs[s] * rows[s][di];
                }
                *d = acc;
            }
            t0 = t1;
        }
    }

    /// Monomorphised row kernel for a compile-time arity: all term rows
    /// are sliced to the exact segment length up front, so the i-loop is
    /// an unrollable fused multiply-add chain over `T` streams.
    #[inline]
    fn row_spec<const T: usize>(
        &self,
        sink: &mut Sink<'_>,
        k: usize,
        j: usize,
        i0: usize,
        i1: usize,
    ) {
        let len = i1 - i0;
        let ob = (sink.geom.row_base(j as isize, k as isize) - sink.base) as usize + i0;
        let dst = &mut sink.win[ob..ob + len];
        let mut rows: [&[f64]; T] = [&[]; T];
        for (((row, ge), off), src) in rows
            .iter_mut()
            .zip(&self.geoms)
            .zip(&self.offs)
            .zip(&self.srcs)
        {
            let base = (ge.row_base(j as isize, k as isize) + off) as usize + i0;
            *row = &src[base..base + len];
        }
        let mut coeffs = [0.0f64; T];
        coeffs.copy_from_slice(&self.coeffs);
        let constant = self.constant;
        for (di, d) in dst.iter_mut().enumerate() {
            let mut acc = constant;
            for t in 0..T {
                acc += coeffs[t] * rows[t][di];
            }
            *d = acc;
        }
    }

    /// Dynamic-arity fallback: initialises the row to the constant, then
    /// streams one term at a time. The additions hit the accumulator in
    /// the same order as the specialised kernel, so both produce bitwise
    /// identical results.
    fn row_dyn(&self, sink: &mut Sink<'_>, k: usize, j: usize, i0: usize, i1: usize) {
        let len = i1 - i0;
        let ob = (sink.geom.row_base(j as isize, k as isize) - sink.base) as usize + i0;
        let dst = &mut sink.win[ob..ob + len];
        dst.fill(self.constant);
        for t in 0..self.coeffs.len() {
            let base =
                (self.geoms[t].row_base(j as isize, k as isize) + self.offs[t]) as usize + i0;
            let src = &self.srcs[t][base..base + len];
            let c = self.coeffs[t];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += c * s;
            }
        }
    }
}

/// The output window a kernel job writes into: a contiguous slice of
/// output storage, the absolute storage index of its first element, and
/// the full output geometry (row addressing stays absolute; `base` maps
/// it into the window).
pub(crate) struct Sink<'w> {
    pub(crate) win: &'w mut [f64],
    pub(crate) base: isize,
    pub(crate) geom: Geom,
}

/// The YASK block / sub-block loop nest over `kr × jr × ir`, invoking
/// `row(k, j, i0, i1)` for every contiguous x-segment, x-innermost.
#[inline]
fn blocked_nest(
    kr: (usize, usize),
    jr: (usize, usize),
    ir: (usize, usize),
    block: [usize; 3],
    sub: [usize; 3],
    mut row: impl FnMut(usize, usize, usize, usize),
) {
    for kb in (kr.0..kr.1).step_by(block[2]) {
        let kz1 = (kb + block[2]).min(kr.1);
        for jb in (jr.0..jr.1).step_by(block[1]) {
            let jy1 = (jb + block[1]).min(jr.1);
            for ib in (ir.0..ir.1).step_by(block[0]) {
                let ix1 = (ib + block[0]).min(ir.1);
                for skb in (kb..kz1).step_by(sub[2]) {
                    let skz = (skb + sub[2]).min(kz1);
                    for sjb in (jb..jy1).step_by(sub[1]) {
                        let sjy = (sjb + sub[1]).min(jy1);
                        for sib in (ib..ix1).step_by(sub[0]) {
                            let six = (sib + sub[0]).min(ix1);
                            for k in skb..skz {
                                for j in sjb..sjy {
                                    row(k, j, sib, six);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A z-slab of the output: domain k-range plus the matching contiguous
/// window of output storage.
struct Slab<'w> {
    win: &'w mut [f64],
    win_base: isize,
    k0: usize,
    k1: usize,
}

/// Splits the output storage into per-slab contiguous plane windows, one
/// per non-empty z-block range from [`chunk_ranges`]. The decomposition
/// depends only on `(n, block, threads)`, never on the pool width.
fn split_slabs<'w>(
    data: &'w mut [f64],
    out_geom: Geom,
    n: [usize; 3],
    block_z: usize,
    threads: usize,
) -> Vec<Slab<'w>> {
    let nblocks_z = n[2].div_ceil(block_z);
    let plane = (out_geom.ax * out_geom.ay) as usize;
    let hz = out_geom.hz as usize;
    let mut slabs = Vec::new();
    let mut rest = data;
    let mut consumed = 0usize; // storage planes consumed so far
    for (kb0, kb1) in chunk_ranges(nblocks_z, threads) {
        let k0 = kb0 * block_z;
        let k1 = (kb1 * block_z).min(n[2]);
        let first_plane = k0 + hz;
        let last_plane = k1 + hz;
        let skip = (first_plane - consumed) * plane;
        let take = (last_plane - first_plane) * plane;
        let (before, after) = rest.split_at_mut(skip + take);
        rest = after;
        consumed = last_plane;
        slabs.push(Slab {
            win: &mut before[skip..],
            win_base: (first_plane * plane) as isize,
            k0,
            k1,
        });
    }
    slabs
}

/// Linear combination over row-major storage: blocked loops, threaded
/// over z-slabs on the pool. `lanes` picks the folded lane kernel
/// (`0` = scalar rows). Returns the number of slabs that received work
/// (= threads used).
#[allow(clippy::too_many_arguments)] // internal executor; two call sites
fn linear_fast_path(
    pool: &ExecPool,
    terms: &[((usize, [i32; 3]), f64)],
    constant: f64,
    inputs: &[&Grid3],
    out: &mut Grid3,
    params: &TuningParams,
    prof: &SweepProfiler,
    lanes: usize,
) -> usize {
    let n = out.n();
    let block = params.clipped_block(n);
    let sub = params.sub_block.unwrap_or(block).map(|e| e.max(1));
    let kernel = LinearKernel::build(terms, constant, inputs, lanes);
    let out_geom = Geom::of(out);
    let slabs = split_slabs(out.as_mut_slice(), out_geom, n, block[2], params.threads);
    let used = slabs.len();
    let kernel = &kernel;
    let jobs: Vec<ScopedJob<'_>> = slabs
        .into_iter()
        .map(|slab| {
            Box::new(move || {
                let t0 = prof.start();
                let mut sink = Sink {
                    win: slab.win,
                    base: slab.win_base,
                    geom: out_geom,
                };
                kernel.apply_blocked(
                    &mut sink,
                    (slab.k0, slab.k1),
                    (0, n[1]),
                    (0, n[0]),
                    block,
                    sub,
                );
                prof.chunk_done(t0);
            }) as ScopedJob<'_>
        })
        .collect();
    pool.run(jobs);
    used
}

/// Tape stencils on row-major storage: the same z-slab threading as the
/// linear path, with the interpreter fed through direct row addressing
/// instead of per-point `Grid3::get`. Per-slab scratch (access bases and
/// values) is allocated once per job, outside the loops.
fn tape_fast_path(
    pool: &ExecPool,
    tape: &Tape,
    inputs: &[&Grid3],
    out: &mut Grid3,
    params: &TuningParams,
    prof: &SweepProfiler,
) -> usize {
    let n = out.n();
    let block = params.clipped_block(n);
    let sub = params.sub_block.unwrap_or(block).map(|e| e.max(1));
    // Per access slot: geometry, element offset, source slice.
    let slots: Vec<(Geom, isize, &[f64])> = tape
        .accesses()
        .iter()
        .map(|(g, o)| {
            let ge = Geom::of(inputs[*g]);
            (ge, ge.offset_of(*o), inputs[*g].as_slice())
        })
        .collect();
    let out_geom = Geom::of(out);
    let slabs = split_slabs(out.as_mut_slice(), out_geom, n, block[2], params.threads);
    let used = slabs.len();
    let slots = &slots;
    let jobs: Vec<ScopedJob<'_>> = slabs
        .into_iter()
        .map(|slab| {
            Box::new(move || {
                let t0 = prof.start();
                let mut bases = vec![0usize; slots.len()];
                let mut vals = vec![0.0f64; slots.len()];
                let win = slab.win;
                blocked_nest(
                    (slab.k0, slab.k1),
                    (0, n[1]),
                    (0, n[0]),
                    block,
                    sub,
                    |k, j, i0, i1| {
                        for (s, &(ge, off, _)) in slots.iter().enumerate() {
                            bases[s] = (ge.row_base(j as isize, k as isize) + off) as usize;
                        }
                        let ob =
                            (out_geom.row_base(j as isize, k as isize) - slab.win_base) as usize;
                        for i in i0..i1 {
                            for (s, &(_, _, src)) in slots.iter().enumerate() {
                                vals[s] = src[bases[s] + i];
                            }
                            win[ob + i] = tape.eval(&vals);
                        }
                    },
                );
                prof.chunk_done(t0);
            }) as ScopedJob<'_>
        })
        .collect();
    pool.run(jobs);
    used
}

/// Generic path: blocked loops through the layout-agnostic accessors.
/// Single-threaded by design — folded layouts scatter a row across
/// bricks, so there is no contiguous storage window to hand each worker
/// (see [`NativeRun::threads_used`]).
fn generic_path(
    compiled: &CompiledStencil,
    inputs: &[&Grid3],
    out: &mut Grid3,
    params: &TuningParams,
) {
    let n = out.n();
    let block = params.clipped_block(n);
    for kb in (0..n[2]).step_by(block[2]) {
        let kz1 = (kb + block[2]).min(n[2]);
        for jb in (0..n[1]).step_by(block[1]) {
            let jy1 = (jb + block[1]).min(n[1]);
            for ib in (0..n[0]).step_by(block[0]) {
                let ix1 = (ib + block[0]).min(n[0]);
                for k in kb..kz1 {
                    for j in jb..jy1 {
                        for i in ib..ix1 {
                            let v = compiled.eval_at(inputs, i as isize, j as isize, k as isize);
                            out.set(i as isize, j as isize, k as isize, v);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepRequest, Tier};
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::{box3d, heat3d, inverter_chain_rhs, wave2d};

    fn filled(name: &str, n: [usize; 3], halo: [usize; 3], fold: Fold) -> Grid3 {
        let mut g = Grid3::new(name, n, halo, fold);
        g.fill_with(|i, j, k| ((i * 7 + j * 13 + k * 29) % 23) as f64 * 0.125 - 1.0);
        g.fill_halo(0.25);
        g
    }

    fn reference(stencil: &Stencil, inputs: &[&Grid3], n: [usize; 3]) -> Grid3 {
        let mut r = Grid3::new("ref", n, [0, 0, 0], Fold::unit());
        stencil.apply_reference(inputs, &mut r).unwrap();
        r
    }

    /// Runs a spatial sweep under an explicit tier policy (pinned so the
    /// assertions hold under any `YASKSITE_FORCE_TIER` environment).
    fn sweep(
        stencil: &Stencil,
        inputs: &[&Grid3],
        out: &mut Grid3,
        p: &TuningParams,
        policy: TierPolicy,
    ) -> crate::sweep::SweepReport {
        SweepRequest::new(p)
            .tier(policy)
            .apply(stencil, inputs, out)
            .unwrap()
    }

    #[test]
    fn fast_path_matches_reference() {
        let s = heat3d(1);
        let n = [24, 10, 9];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let r = reference(&s, &[&u], n);
        let p = TuningParams::new([8, 4, 4], fold);
        for policy in [TierPolicy::ForceScalar, TierPolicy::ForceFolded] {
            let mut out = Grid3::new("o", n, [1, 1, 1], fold);
            let run = sweep(&s, &[&u], &mut out, &p, policy);
            assert_eq!(run.updates, 24 * 10 * 9);
            assert!(out.max_abs_diff(&r).unwrap() < 1e-12, "{policy:?}");
        }
    }

    #[test]
    fn folded_lane_tier_is_bitwise_identical_to_scalar_tier() {
        // Every supported lane count, specialised and dynamic arities,
        // awkward row lengths (remainder tails), multiple threads.
        for (s, halo) in [
            (heat3d(1), [1, 1, 1]), // 7 terms: specialised scalar row
            (box3d(1), [1, 1, 1]),  // 27 terms: specialised scalar row
            (heat3d(2), [2, 2, 2]), // 13 terms: dynamic scalar row
        ] {
            let n = [21, 7, 6];
            for lanes in [2usize, 4, 8, 16] {
                let fold = Fold::new(lanes, 1, 1);
                let u = filled("u", n, halo, fold);
                let p = TuningParams::new([9, 4, 3], fold).threads(2);
                let mut scalar = Grid3::new("s", n, halo, fold);
                let rs = sweep(&s, &[&u], &mut scalar, &p, TierPolicy::ForceScalar);
                assert_eq!(rs.tier, Tier::Scalar);
                let mut folded = Grid3::new("f", n, halo, fold);
                let rf = sweep(&s, &[&u], &mut folded, &p, TierPolicy::ForceFolded);
                assert_eq!(rf.tier, Tier::Folded, "lanes={lanes}");
                assert_eq!(
                    scalar.max_abs_diff(&folded).unwrap(),
                    0.0,
                    "stencil {} lanes {lanes} diverged",
                    s.name()
                );
                assert!(folded.max_abs_diff(&reference(&s, &[&u], n)).unwrap() < 1e-12);
            }
        }
    }

    #[test]
    fn threaded_fast_path_matches_reference() {
        let s = heat3d(1);
        let n = [16, 8, 12];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let r = reference(&s, &[&u], n);
        for threads in [1, 2, 3, 5] {
            let mut out = Grid3::new("o", n, [1, 1, 1], fold);
            let p = TuningParams::new([8, 4, 2], fold).threads(threads);
            let run = sweep(&s, &[&u], &mut out, &p, TierPolicy::Auto);
            assert!(run.threads_used >= 1 && run.threads_used <= threads.max(1));
            assert!(out.max_abs_diff(&r).unwrap() < 1e-12, "threads={threads}");
        }
    }

    #[test]
    fn threads_used_counts_nonempty_slabs_only() {
        // n_z = 4 with block_z = 2 gives 2 z-blocks: asking for 8 threads
        // must report 2 slabs of real work, not 8.
        let s = heat3d(1);
        let n = [16, 4, 4];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let mut out = Grid3::new("o", n, [1, 1, 1], fold);
        let p = TuningParams::new([16, 4, 2], fold).threads(8);
        let run = sweep(&s, &[&u], &mut out, &p, TierPolicy::Auto);
        assert_eq!(run.threads_used, 2);
        let r = reference(&s, &[&u], n);
        assert!(out.max_abs_diff(&r).unwrap() < 1e-12);
    }

    #[test]
    fn private_pool_matches_global_pool_bitwise() {
        let s = heat3d(1);
        let n = [24, 12, 10];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let p = TuningParams::new([8, 4, 2], fold).threads(4);
        let mut a = Grid3::new("a", n, [1, 1, 1], fold);
        let mut b = Grid3::new("b", n, [1, 1, 1], fold);
        SweepRequest::new(&p).apply(&s, &[&u], &mut a).unwrap();
        let small = ExecPool::new(1);
        SweepRequest::new(&p)
            .pool(&small)
            .apply(&s, &[&u], &mut b)
            .unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0);
    }

    #[test]
    fn brick_tier_matches_reference_and_generic_path_bitwise() {
        // Multi-dimensional folds used to fall back to the per-point
        // generic path; the brick kernel must reproduce it bitwise and
        // thread over brick-z slabs.
        for fold in [Fold::new(4, 2, 1), Fold::new(2, 2, 2), Fold::new(1, 2, 1)] {
            let s = box3d(1);
            let n = [12, 6, 6];
            let u = filled("u", n, [1, 1, 1], fold);
            let p = TuningParams::new([4, 4, 4], fold);
            let mut gen = Grid3::new("g", n, [1, 1, 1], fold);
            let rg = sweep(&s, &[&u], &mut gen, &p, TierPolicy::ForceScalar);
            assert_eq!(rg.tier, Tier::Generic, "no scalar rows on {fold}");
            assert_eq!(rg.threads_used, 1);
            let mut brick = Grid3::new("b", n, [1, 1, 1], fold);
            let rb = sweep(&s, &[&u], &mut brick, &p, TierPolicy::Auto);
            assert_eq!(rb.tier, Tier::Folded, "fold={fold}");
            assert_eq!(gen.max_abs_diff(&brick).unwrap(), 0.0, "fold={fold}");
            assert!(brick.max_abs_diff(&reference(&s, &[&u], n)).unwrap() < 1e-12);
            // Threaded brick runs stay bitwise identical and report the
            // brick-z slab count.
            for threads in [2usize, 3, 8] {
                let mut t = Grid3::new("t", n, [1, 1, 1], fold);
                let rt = sweep(
                    &s,
                    &[&u],
                    &mut t,
                    &p.clone().threads(threads),
                    TierPolicy::Auto,
                );
                assert_eq!(rt.tier, Tier::Folded);
                assert!(rt.threads_used >= 1 && rt.threads_used <= threads);
                assert_eq!(
                    brick.max_abs_diff(&t).unwrap(),
                    0.0,
                    "fold={fold} t={threads}"
                );
            }
        }
    }

    #[test]
    fn brick_tier_leaves_halo_untouched() {
        let s = heat3d(1);
        let n = [10, 6, 5];
        let fold = Fold::new(4, 2, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let mut out = Grid3::new("o", n, [1, 1, 1], fold);
        out.fill_halo(7.5);
        let p = TuningParams::new([4, 4, 4], fold).threads(2);
        let run = sweep(&s, &[&u], &mut out, &p, TierPolicy::Auto);
        assert_eq!(run.tier, Tier::Folded);
        let h = out.halo().map(|e| e as isize);
        let nn = out.n().map(|e| e as isize);
        for k in -h[2]..nn[2] + h[2] {
            for j in -h[1]..nn[1] + h[1] {
                for i in -h[0]..nn[0] + h[0] {
                    let inside = i >= 0 && i < nn[0] && j >= 0 && j < nn[1] && k >= 0 && k < nn[2];
                    if !inside {
                        assert_eq!(out.get(i, j, k), 7.5, "halo clobbered at ({i},{j},{k})");
                    }
                }
            }
        }
    }

    #[test]
    fn brick_tier_handles_two_input_stencils() {
        let s = wave2d(0.3);
        let n = [12, 10, 1];
        let fold = Fold::new(2, 2, 1);
        let u = filled("u", n, [1, 1, 0], fold);
        let um = filled("um", n, [1, 1, 0], fold);
        let mut out = Grid3::new("o", n, [1, 1, 0], fold);
        let p = TuningParams::new([8, 8, 1], fold).threads(2);
        let run = sweep(&s, &[&u, &um], &mut out, &p, TierPolicy::Auto);
        assert_eq!(run.tier, Tier::Folded);
        let r = reference(&s, &[&u, &um], n);
        assert!(out.max_abs_diff(&r).unwrap() < 1e-12);
    }

    #[test]
    fn nonlinear_tape_matches_reference() {
        let s = inverter_chain_rhs(5.0, 1.0, 2.0);
        let n = [64, 1, 1];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 0, 0], fold);
        let mut out = Grid3::new("o", n, [1, 0, 0], fold);
        let p = TuningParams::new([16, 1, 1], fold);
        let run = sweep(&s, &[&u], &mut out, &p, TierPolicy::Auto);
        assert_eq!(run.tier, Tier::Tape);
        let r = reference(&s, &[&u], n);
        assert!(out.max_abs_diff(&r).unwrap() < 1e-12);
    }

    #[test]
    fn threaded_tape_path_matches_single_thread_bitwise() {
        let s = inverter_chain_rhs(5.0, 1.0, 2.0);
        let n = [32, 4, 6];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let p1 = TuningParams::new([16, 2, 2], fold);
        let mut one = Grid3::new("o1", n, [1, 1, 1], fold);
        let r1 = sweep(&s, &[&u], &mut one, &p1, TierPolicy::Auto);
        assert_eq!(r1.threads_used, 1);
        for threads in [2, 3, 4] {
            let mut many = Grid3::new("om", n, [1, 1, 1], fold);
            let p = p1.clone().threads(threads);
            let run = sweep(&s, &[&u], &mut many, &p, TierPolicy::Auto);
            assert!(run.threads_used > 1, "tape path must thread over slabs");
            assert_eq!(one.max_abs_diff(&many).unwrap(), 0.0, "threads={threads}");
        }
    }

    #[test]
    fn two_input_stencil_matches_reference() {
        let s = wave2d(0.3);
        let n = [20, 14, 1];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 0], fold);
        let um = filled("um", n, [1, 1, 0], fold);
        let mut out = Grid3::new("o", n, [1, 1, 0], fold);
        let p = TuningParams::new([8, 8, 1], fold).threads(2);
        sweep(&s, &[&u, &um], &mut out, &p, TierPolicy::Auto);
        let r = reference(&s, &[&u, &um], n);
        assert!(out.max_abs_diff(&r).unwrap() < 1e-12);
    }

    #[test]
    fn fold_mismatch_rejected() {
        let s = heat3d(1);
        let u = filled("u", [8, 8, 8], [1, 1, 1], Fold::new(8, 1, 1));
        let mut out = Grid3::new("o", [8, 8, 8], [1, 1, 1], Fold::new(8, 1, 1));
        let p = TuningParams::new([8, 8, 8], Fold::new(4, 2, 1));
        assert!(matches!(
            SweepRequest::new(&p).apply(&s, &[&u], &mut out),
            Err(EngineError::BadParams { .. })
        ));
    }

    #[test]
    fn sub_blocks_never_change_results() {
        let s = heat3d(1);
        let n = [19, 11, 9];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let r = reference(&s, &[&u], n);
        for sub in [[4, 2, 2], [1, 1, 1], [32, 32, 32], [5, 3, 2]] {
            let mut out = Grid3::new("o", n, [1, 1, 1], fold);
            let p = TuningParams::new([16, 8, 8], fold)
                .sub_block(sub)
                .threads(2);
            sweep(&s, &[&u], &mut out, &p, TierPolicy::Auto);
            assert!(out.max_abs_diff(&r).unwrap() < 1e-12, "sub {sub:?}");
        }
    }

    #[test]
    fn block_size_never_changes_results() {
        let s = heat3d(1);
        let n = [17, 9, 7]; // awkward sizes exercise remainder blocks
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let r = reference(&s, &[&u], n);
        for block in [[1, 1, 1], [3, 3, 3], [17, 9, 7], [32, 32, 32], [5, 2, 6]] {
            let mut out = Grid3::new("o", n, [1, 1, 1], fold);
            let p = TuningParams::new(block, fold);
            sweep(&s, &[&u], &mut out, &p, TierPolicy::Auto);
            assert!(out.max_abs_diff(&r).unwrap() < 1e-12, "block {block:?}");
        }
    }

    #[test]
    fn profiled_run_is_bitwise_identical_and_records_phases() {
        let s = heat3d(1);
        let n = [24, 12, 10];
        let fold = Fold::new(8, 1, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let p = TuningParams::new([8, 4, 2], fold).threads(3);
        let mut plain = Grid3::new("a", n, [1, 1, 1], fold);
        let mut profiled = Grid3::new("b", n, [1, 1, 1], fold);
        let pool = ExecPool::new(3);
        SweepRequest::new(&p)
            .pool(&pool)
            .apply(&s, &[&u], &mut plain)
            .unwrap();
        let prof = SweepProfiler::enabled();
        let run = SweepRequest::new(&p)
            .pool(&pool)
            .profiler(&prof)
            .apply(&s, &[&u], &mut profiled)
            .unwrap();
        assert_eq!(plain.max_abs_diff(&profiled).unwrap(), 0.0);
        let r = prof.report();
        assert!(r.enabled);
        assert!(r.phases.iter().any(|ph| ph.name == "compile"));
        assert!(r.phases.iter().any(|ph| ph.name == "sweep"));
        let chunks = r.chunks.expect("threaded sweep records chunks");
        assert_eq!(chunks.count as usize, run.threads_used);
        let pool_win = r.pool.expect("pool window recorded");
        assert_eq!(pool_win.workers, 3);
        assert!(pool_win.occupancy > 0.0 && pool_win.occupancy <= 1.0);
    }

    #[test]
    fn profiled_brick_tier_records_chunks_and_stays_bitwise() {
        let s = box3d(1);
        let n = [12, 8, 8];
        let fold = Fold::new(4, 2, 1);
        let u = filled("u", n, [1, 1, 1], fold);
        let p = TuningParams::new([4, 4, 4], fold).threads(3);
        let mut plain = Grid3::new("a", n, [1, 1, 1], fold);
        let mut profiled = Grid3::new("b", n, [1, 1, 1], fold);
        SweepRequest::new(&p)
            .tier(TierPolicy::Auto)
            .apply(&s, &[&u], &mut plain)
            .unwrap();
        let prof = SweepProfiler::enabled();
        let run = SweepRequest::new(&p)
            .tier(TierPolicy::Auto)
            .profiler(&prof)
            .apply(&s, &[&u], &mut profiled)
            .unwrap();
        assert_eq!(run.tier, Tier::Folded);
        assert_eq!(plain.max_abs_diff(&profiled).unwrap(), 0.0);
        let r = prof.report();
        let chunks = r.chunks.expect("brick tier records per-slab chunks");
        assert_eq!(chunks.count as usize, run.threads_used);
    }

    #[test]
    fn dyn_arity_row_matches_specialised_rows_bitwise() {
        // box3d(2) has 125 terms — no monomorphised kernel — while
        // box3d(1) has 27 — specialised. Both must agree with the
        // reference; a radius-2 box against its own single-threaded run
        // checks the dyn row under threading too. The folded lane kernel
        // must agree bitwise with the scalar dyn row as well.
        let s = box3d(2);
        let n = [20, 9, 8];
        let fold = Fold::new(4, 1, 1);
        let u = filled("u", n, [2, 2, 2], fold);
        let p = TuningParams::new([10, 4, 2], fold);
        let mut one = Grid3::new("o1", n, [2, 2, 2], fold);
        sweep(&s, &[&u], &mut one, &p, TierPolicy::ForceScalar);
        let r = reference(&s, &[&u], n);
        assert!(one.max_abs_diff(&r).unwrap() < 1e-12);
        let mut four = Grid3::new("o4", n, [2, 2, 2], fold);
        sweep(
            &s,
            &[&u],
            &mut four,
            &p.clone().threads(4),
            TierPolicy::ForceScalar,
        );
        assert_eq!(one.max_abs_diff(&four).unwrap(), 0.0);
        let mut lanes = Grid3::new("ol", n, [2, 2, 2], fold);
        let rl = sweep(
            &s,
            &[&u],
            &mut lanes,
            &p.clone().threads(4),
            TierPolicy::ForceFolded,
        );
        assert_eq!(rl.tier, Tier::Folded);
        assert_eq!(one.max_abs_diff(&lanes).unwrap(), 0.0);
    }
}
