//! `hodlr-la` kernel probes: the public gemm, getrf and potrf timed on a
//! workload's own shapes (64x64 leaves, 64 x r panels at its median rank).
//!
//! Flops follow the workspace convention (a multiply-add is 2 flops; a
//! complex one is 4 real multiply-adds).  Bytes are *computed* from the
//! array sizes each call reads and writes, not measured.

use crate::report::Metrics;
use crate::stats::median;
use hodlr_la::cholesky::potrf_in_place;
use hodlr_la::lu::getrf_in_place;
use hodlr_la::random::random_matrix;
use hodlr_la::{gemm, Complex64, DenseMatrix, Op, Scalar};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Leaf order of every workload (the paper's 64).
const LEAF: usize = 64;
/// Matrices factorized per timed batch, so one timed interval is long.
const BATCH: usize = 64;
/// Timed batches per probe; the probe reports their median rate.
const ROUNDS: usize = 9;

fn real_flops<T: Scalar>(flops: f64) -> f64 {
    if T::IS_COMPLEX {
        4.0 * flops
    } else {
        flops
    }
}

/// Median GFLOP/s of `ROUNDS` batches of `BATCH` calls of `f`, each fed a
/// fresh copy of its input (copies are made outside the timed interval).
fn rate<T: Scalar>(
    input: &DenseMatrix<T>,
    flops_per_call: f64,
    mut f: impl FnMut(&mut DenseMatrix<T>),
) -> f64 {
    let mut rates = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let mut batch: Vec<DenseMatrix<T>> = vec![input.clone(); BATCH];
        let start = Instant::now();
        for a in batch.iter_mut() {
            f(black_box(a));
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(&batch);
        rates.push(flops_per_call * BATCH as f64 / secs / 1e9);
    }
    median(&rates)
}

fn probe_gemm<T: Scalar>(rank: usize, m: &mut Metrics, name: &'static str) {
    let mut rng = StdRng::seed_from_u64(0x6e33);
    let a: DenseMatrix<T> = random_matrix(&mut rng, LEAF, LEAF);
    let b: DenseMatrix<T> = random_matrix(&mut rng, LEAF, rank);
    let c: DenseMatrix<T> = random_matrix(&mut rng, LEAF, rank);
    let flops = real_flops::<T>(2.0 * (LEAF * LEAF * rank) as f64);
    let bytes = ((LEAF * LEAF + 3 * LEAF * rank) * std::mem::size_of::<T>()) as f64;
    let gflops = rate(&c, flops, |c| {
        gemm(
            T::one(),
            a.as_ref(),
            Op::None,
            b.as_ref(),
            Op::None,
            T::one(),
            c.as_mut(),
        )
    });
    m.push(name, gflops, "GFLOP/s", ROUNDS);
    m.push(format!("{name}.flop_per_byte"), flops / bytes, "flop/B", 1);
}

fn probe_getrf<T: Scalar>(m: &mut Metrics, name: &'static str) {
    let mut rng = StdRng::seed_from_u64(0x9e7f);
    let mut a: DenseMatrix<T> = random_matrix(&mut rng, LEAF, LEAF);
    for i in 0..LEAF {
        a[(i, i)] += T::from_f64(LEAF as f64);
    }
    let flops = real_flops::<T>(2.0 * (LEAF * LEAF * LEAF) as f64 / 3.0);
    let bytes = (2 * LEAF * LEAF * std::mem::size_of::<T>()) as f64;
    let gflops = rate(&a, flops, |a| {
        getrf_in_place(a.as_mut()).expect("diagonally dominant probe matrix");
    });
    m.push(name, gflops, "GFLOP/s", ROUNDS);
    m.push(format!("{name}.flop_per_byte"), flops / bytes, "flop/B", 1);
}

fn probe_potrf(m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(0x907f);
    let g: DenseMatrix<f64> = random_matrix(&mut rng, LEAF, LEAF);
    let mut a = g.matmul(&g.transpose());
    for i in 0..LEAF {
        a[(i, i)] += LEAF as f64;
    }
    let flops = (LEAF * LEAF * LEAF) as f64 / 3.0;
    let bytes = (2 * LEAF * LEAF * std::mem::size_of::<f64>()) as f64;
    let gflops = rate(&a, flops, |a| {
        potrf_in_place(a.as_mut()).expect("SPD probe matrix");
    });
    m.push("la.potrf_gflops.f64", gflops, "GFLOP/s", ROUNDS);
    m.push(
        "la.potrf_gflops.f64.flop_per_byte",
        flops / bytes,
        "flop/B",
        1,
    );
}

/// Run every probe at panel width `rank` on a one-thread pool.
pub fn run(rank: usize, m: &mut Metrics) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread probe pool");
    pool.install(|| {
        let rank = rank.max(1);
        probe_gemm::<f64>(rank, m, "la.gemm_gflops.f64");
        probe_gemm::<Complex64>(rank, m, "la.gemm_gflops.c64");
        probe_getrf::<f64>(m, "la.getrf_gflops.f64");
        probe_getrf::<Complex64>(m, "la.getrf_gflops.c64");
        probe_potrf(m);
    });
}
