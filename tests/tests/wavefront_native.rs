//! Correctness of the rebuilt native execution layer: the blocked and
//! threaded wavefront path must reproduce the plain stepper *bitwise*
//! (same per-point FP op order), and the pool-based spatial path must be
//! bitwise identical to the seed's scoped-thread implementation for
//! arbitrary blocks, sub-blocks and thread counts.

use proptest::prelude::*;
use xtests::seeded_grid;
use yasksite_engine::{
    CompiledStencil, SweepProfiler, SweepRequest, Tier, TierPolicy, TuningParams,
};
use yasksite_grid::{Fold, Grid3};
use yasksite_stencil::builders::heat3d;
use yasksite_stencil::{at, c, Expr, Stencil};

/// Reference: `depth` plain ping-pong sweeps through `SweepRequest::apply`,
/// returning the grid holding the newest time level. The plain path and
/// the wavefront path compute each point with the identical FP op order,
/// so comparisons against this reference are exact (`== 0.0`).
fn stepper_reference(
    stencil: &Stencil,
    a: &mut Grid3,
    b: &mut Grid3,
    depth: usize,
    params: &TuningParams,
) {
    let plain = params.clone().wavefront(1);
    let request = SweepRequest::new(&plain).tier(TierPolicy::Auto);
    for s in 0..depth {
        if s % 2 == 0 {
            request.apply(stencil, &[&*a], b).unwrap();
        } else {
            request.apply(stencil, &[&*b], a).unwrap();
        }
    }
    // Mirror SweepRequest::run_wavefront's convention: newest level ends
    // in `a`.
    if depth % 2 == 1 {
        a.swap_data(b).unwrap();
    }
}

/// The full matrix the issue asks for: radius-1 and radius-2 stencils ×
/// fold shapes × wavefront depths × thread counts × tier policies ×
/// profiled on/off, every cell bitwise-identical to the plain stepper.
/// Folded-layout wavefronts must match scalar-layout wavefronts exactly,
/// and forcing a tier must never change results.
#[test]
fn wavefront_matrix_bitwise_matches_plain_stepper() {
    for radius in [1usize, 2] {
        let stencil = heat3d(radius);
        let halo = [radius, radius, radius];
        let n = [24, 14, 12];
        for fold in [Fold::new(8, 1, 1), Fold::new(4, 1, 1), Fold::unit()] {
            for depth in [1usize, 2, 3, 5] {
                // Reference once per (radius, fold, depth).
                let mut ra = seeded_grid("ra", n, halo, fold, 11);
                let mut rb = seeded_grid("rb", n, halo, fold, 11);
                ra.fill_halo(0.0);
                rb.fill_halo(0.0);
                let base = TuningParams::new([24, 4, 4], fold);
                stepper_reference(&stencil, &mut ra, &mut rb, depth, &base);

                for threads in [1usize, 2, 4] {
                    for policy in [TierPolicy::ForceScalar, TierPolicy::ForceFolded] {
                        for profiled in [false, true] {
                            let mut a = seeded_grid("a", n, halo, fold, 11);
                            let mut b = seeded_grid("b", n, halo, fold, 11);
                            a.fill_halo(0.0);
                            b.fill_halo(0.0);
                            let p = base.clone().threads(threads).wavefront(depth);
                            let prof = SweepProfiler::enabled();
                            let mut request = SweepRequest::new(&p).tier(policy);
                            if profiled {
                                request = request.profiler(&prof);
                            }
                            let report = request.run_wavefront(&stencil, &mut a, &mut b).unwrap();
                            assert_eq!(
                                a.max_abs_diff(&ra).unwrap(),
                                0.0,
                                "radius {radius}, fold {fold}, depth {depth}, \
                                 threads {threads}, policy {policy:?}, \
                                 profiled {profiled} diverged"
                            );
                            assert_eq!(report.wavefront_depth, depth);
                            // Forcing folded on a lane-capable fold must
                            // truthfully report the folded tier; x-folds
                            // without a supported lane count degrade to
                            // scalar with the reason recorded.
                            if policy == TierPolicy::ForceFolded && fold.x >= 2 {
                                assert_eq!(report.tier, Tier::Folded, "fold {fold}");
                            }
                            if policy == TierPolicy::ForceScalar {
                                assert_eq!(report.tier, Tier::Scalar, "fold {fold}");
                            }
                            assert!(!report.tier_reason.as_str().is_empty());
                        }
                    }
                }
            }
        }
    }
}

/// Seed-replica of the original `linear_fast_path`: scoped threads spawned
/// per sweep, z-slab split at block boundaries, per-row descriptor Vecs.
/// The rebuilt pool-based engine must match it bit for bit.
fn seed_scoped_linear(stencil: &Stencil, input: &Grid3, out: &mut Grid3, params: &TuningParams) {
    let compiled = CompiledStencil::compile(stencil);
    let (terms, constant) = compiled.linear_terms().expect("linear stencil");
    let n = out.n();
    let block = params.clipped_block(n);
    let sub = params.sub_block.unwrap_or(block).map(|e| e.max(1));

    let ia = input.alloc();
    let ih = input.halo();
    let (iax, iay) = (ia[0] as isize, ia[1] as isize);
    let (ihx, ihy, ihz) = (ih[0] as isize, ih[1] as isize, ih[2] as isize);
    let term_desc: Vec<(isize, f64)> = terms
        .iter()
        .map(|&((_, o), co)| {
            let off = (o[2] as isize * iay + o[1] as isize) * iax + o[0] as isize;
            (off, co)
        })
        .collect();

    let oa = out.alloc();
    let oh = out.halo();
    let (oax, oay) = (oa[0] as isize, oa[1] as isize);
    let (ohx, ohy, ohz) = (oh[0] as isize, oh[1] as isize, oh[2] as isize);
    let plane_elems = (oax * oay) as usize;

    let nblocks_z = n[2].div_ceil(block[2]);
    let threads = params.threads.clamp(1, nblocks_z);
    let mut slab_limits = Vec::with_capacity(threads + 1);
    for t in 0..=threads {
        slab_limits.push(t * nblocks_z / threads);
    }

    let src_all = input.as_slice();
    let data = out.as_mut_slice();
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut consumed = 0usize;
        for t in 0..threads {
            let (kb0, kb1) = (slab_limits[t], slab_limits[t + 1]);
            if kb0 == kb1 {
                continue;
            }
            let k0 = kb0 * block[2];
            let k1 = (kb1 * block[2]).min(n[2]);
            let first_plane = k0 + ohz as usize;
            let last_plane = k1 + ohz as usize;
            let skip = (first_plane - consumed) * plane_elems;
            let take = (last_plane - first_plane) * plane_elems;
            let (before, after) = rest.split_at_mut(skip + take);
            let slab = &mut before[skip..];
            rest = after;
            consumed = last_plane;
            let term_desc = &term_desc;
            scope.spawn(move || {
                let slab_base = (first_plane * plane_elems) as isize;
                for kb in (k0..k1).step_by(block[2]) {
                    let kz1 = (kb + block[2]).min(k1);
                    for jb in (0..n[1]).step_by(block[1]) {
                        let jy1 = (jb + block[1]).min(n[1]);
                        for ib in (0..n[0]).step_by(block[0]) {
                            let ix1 = (ib + block[0]).min(n[0]);
                            for skb in (kb..kz1).step_by(sub[2]) {
                                let skz = (skb + sub[2]).min(kz1);
                                for sjb in (jb..jy1).step_by(sub[1]) {
                                    let sjy = (sjb + sub[1]).min(jy1);
                                    for sib in (ib..ix1).step_by(sub[0]) {
                                        let six = (sib + sub[0]).min(ix1);
                                        for k in skb..skz {
                                            for j in sjb..sjy {
                                                let out_row = ((k as isize + ohz) * oay
                                                    + (j as isize + ohy))
                                                    * oax
                                                    + ohx
                                                    - slab_base;
                                                let in_row = ((k as isize + ihz) * iay
                                                    + (j as isize + ihy))
                                                    * iax
                                                    + ihx;
                                                let in_rows: Vec<(isize, f64)> = term_desc
                                                    .iter()
                                                    .map(|&(off, co)| (in_row + off, co))
                                                    .collect();
                                                for i in sib..six {
                                                    let mut acc = constant;
                                                    for &(base, co) in &in_rows {
                                                        acc += co
                                                            * src_all[(base + i as isize) as usize];
                                                    }
                                                    slab[(out_row + i as isize) as usize] = acc;
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
    });
}

/// Strategy: a random single-input linear stencil with offsets within
/// radius 2 (the same family `prop_engine.rs` uses).
fn arb_linear_stencil() -> impl Strategy<Value = Stencil> {
    proptest::collection::vec(((-2i32..=2), (-2i32..=2), (-2i32..=2), -2.0f64..2.0), 1..8).prop_map(
        |terms| {
            let exprs: Vec<Expr> = terms
                .iter()
                .map(|&(dx, dy, dz, w)| c(w) * at(0, dx, dy, dz))
                .collect();
            Stencil::new("prop", 3, 1, Expr::sum(exprs))
        },
    )
}

fn arb_row_major_fold() -> impl Strategy<Value = Fold> {
    prop_oneof![
        Just(Fold::new(8, 1, 1)),
        Just(Fold::new(4, 1, 1)),
        Just(Fold::unit()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The pool-based engine is bitwise identical to the seed's
    /// scoped-thread implementation for arbitrary blocks, sub-blocks and
    /// thread counts (determinism invariant: work decomposition depends
    /// only on `(domain, params.threads)`, never on pool width).
    #[test]
    fn pool_execution_is_bitwise_identical_to_scoped_seed(
        stencil in arb_linear_stencil(),
        fold in arb_row_major_fold(),
        bx in 1usize..24,
        by in 1usize..8,
        bz in 1usize..8,
        use_sub in any::<bool>(),
        sx in 1usize..12,
        sy in 1usize..6,
        sz in 1usize..6,
        threads in 1usize..6,
        nx in 4usize..24,
        ny in 3usize..10,
        nz in 3usize..10,
    ) {
        let n = [nx, ny, nz];
        let halo = stencil.info().radius;
        let u = seeded_grid("u", n, halo, fold, 17);
        let mut params = TuningParams::new([bx, by, bz], fold).threads(threads);
        if use_sub {
            params = params.sub_block([sx, sy, sz]);
        }

        let mut want = Grid3::new("w", n, halo, fold);
        seed_scoped_linear(&stencil, &u, &mut want, &params);

        let mut got = Grid3::new("g", n, halo, fold);
        SweepRequest::new(&params).apply(&stencil, &[&u], &mut got).unwrap();
        prop_assert_eq!(got.max_abs_diff(&want).unwrap(), 0.0);
    }
}
