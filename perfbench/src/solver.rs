//! The three solver workloads: build with the `hodlr::Hodlr` builder,
//! factorize and solve on both backends, and (for the GP) evaluate the
//! log-likelihood.
//!
//! One repetition runs every phase once, in this order: build, batched
//! factorize and first solve (together the time-to-solution pass), a loop
//! of batched solves, then a loop of 32-column block solves.  The phases
//! take turns inside each repetition, so a slow stretch on the host hits
//! every metric instead of one phase's block of samples.  The first
//! repetition is a warm-up and is discarded.
//!
//! The serial backend is not timed: the one-thread phases drift most with
//! the host, and their run medians spread past the bound between runs.
//! One untimed serial factorization per run checks every repetition's
//! batched solution (and log-determinant) bitwise.

use crate::probes;
use crate::report::{Gates, Metrics, Tally};
use crate::stats::{median, timed_calls, Overhead};
use crate::trace::{CountingSource, SpanId, Tracer};
use crate::Args;
use hodlr::{Backend, Factorization, Factorize, Hodlr, Solve, SolveScalar, Symmetry};
use hodlr_batch::CounterSnapshot;
use hodlr_bie::{HelmholtzExteriorBie, LaplaceExteriorBie, StarContour};
use hodlr_compress::{CompressionMethod, MatrixEntrySource};
use hodlr_core::{ComplexityReport, HodlrMatrix};
use hodlr_gp::{covariance_source, spatial_points, LogLikelihood, SquaredExponential};
use hodlr_la::{Complex64, DenseMatrix, HodlrError, RealScalar, Scalar};
use hodlr_tree::ClusterTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::OnceCell;
use std::time::Instant;

/// Leaf size of every workload (the paper's 64).
const LEAF: usize = 64;
/// Columns of the block solve.
const BLOCK_COLS: usize = 32;
/// Shortest timed loop of solves; every call in it is one sample.
const MIN_LOOP_S: f64 = 0.2;
/// Measured repetitions a run makes even when they overrun `--seconds`.
const MIN_MEASURED: usize = 3;

/// One solver workload.
#[derive(Copy, Clone, Debug)]
pub enum Workload {
    /// Table IV Laplace exterior BIE, f64, ACA-rook at 1e-12.
    Laplace,
    /// Table V(a) Helmholtz combined-field BIE, Complex64, at 1e-10.
    Helmholtz,
    /// Squared-exponential GP covariance over uniform points in [0,1]^3.
    Gp,
    /// The most popular serve-mixed tenant, whose layers the serve-mixed
    /// traced run measures.
    Tenant,
}

impl Workload {
    fn n(self) -> usize {
        match self {
            Workload::Laplace => 32768,
            Workload::Helmholtz | Workload::Gp => 8192,
            Workload::Tenant => crate::serve::TENANT_N,
        }
    }

    fn tol(self) -> f64 {
        match self {
            Workload::Laplace => 1e-12,
            Workload::Helmholtz => 1e-10,
            Workload::Gp => 1e-8,
            Workload::Tenant => crate::serve::TENANT_TOL,
        }
    }

    fn symmetry(self) -> Symmetry {
        match self {
            Workload::Gp => Symmetry::PositiveDefinite,
            _ => Symmetry::General,
        }
    }

    /// Ceiling on the worst right-hand side's residual.  Laplace and the
    /// GP sit near 1e-15 and 1e-11.  The Helmholtz ceiling sits above its
    /// known accuracy loss (residuals of 4e-7 to 6e-7 at n = 8192, ROADMAP
    /// item 1); it is not a target, and the workload is not resized to
    /// hide the loss.
    fn relres_ceiling(self) -> f64 {
        match self {
            Workload::Laplace | Workload::Tenant => 1e-12,
            Workload::Helmholtz => 1e-5,
            Workload::Gp => 1e-9,
        }
    }
}

/// How a build sees its entry source.
#[derive(Copy, Clone, PartialEq, Eq)]
pub(crate) enum Wrap {
    /// The source itself.
    Off,
    /// Through the counting wrapper.
    Count,
    /// Through the counting wrapper, then time entry evaluation.
    CountAndTime,
}

/// Untraced/traced pairs of the traced run's overhead measurement.
const MIN_PAIRS: usize = 3;

/// Entries the source timing probe evaluates.
const SOURCE_PROBE_ENTRIES: usize = 1 << 20;

/// What one build produced, plus what the counting wrapper saw.
pub(crate) struct Built<T: Scalar> {
    pub(crate) hodlr: Hodlr<T>,
    partition_s: f64,
    /// Wall time of the builder call alone.
    builder_s: f64,
    entries: u64,
    ns_per_entry: f64,
}

/// Build from `source` over `tree` on `threads` threads; `partition_s`
/// is the time it took to make the tree.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_from<T: SolveScalar, S: MatrixEntrySource<T>>(
    w: Workload,
    source: &S,
    tree: ClusterTree,
    partition_s: f64,
    backend: Backend,
    threads: usize,
    wrap: Wrap,
) -> Result<Built<T>, HodlrError> {
    fn finish<T: SolveScalar, S: MatrixEntrySource<T>>(
        w: Workload,
        source: &S,
        tree: ClusterTree,
        backend: Backend,
        threads: usize,
    ) -> Result<(Hodlr<T>, f64), HodlrError> {
        let start = Instant::now();
        let hodlr = Hodlr::builder()
            .source(source)
            .tree(tree)
            .tolerance(w.tol())
            .method(CompressionMethod::AcaRook)
            .symmetry(w.symmetry())
            .backend(backend)
            .threads(threads)
            .build()?;
        Ok((hodlr, start.elapsed().as_secs_f64()))
    }
    let built = |(hodlr, builder_s), entries, ns_per_entry| Built {
        hodlr,
        partition_s,
        builder_s,
        entries,
        ns_per_entry,
    };
    if wrap == Wrap::Off {
        return Ok(built(finish(w, source, tree, backend, threads)?, 0, 0.0));
    }
    let wrapped = CountingSource::new(source);
    let out = finish(w, &wrapped, tree, backend, threads)?;
    let ns = if wrap == Wrap::CountAndTime {
        wrapped.ns_per_entry(SOURCE_PROBE_ENTRIES)
    } else {
        0.0
    };
    Ok(built(out, wrapped.entries(), ns))
}

/// The uniform index tree of the BIE workloads (what `.leaf_size(LEAF)`
/// builds), and the seconds it took to make.
pub(crate) fn index_tree(n: usize) -> (ClusterTree, f64) {
    let start = Instant::now();
    let tree = ClusterTree::with_leaf_size(n, LEAF);
    (tree, start.elapsed().as_secs_f64())
}

/// A workload's scalar type and its inputs-to-`Hodlr` setup.
pub(crate) trait Problem: Sync {
    type T: SolveScalar;
    fn workload(&self) -> Workload;
    /// Build the workload's operator at order `n`.
    fn build(
        &self,
        n: usize,
        backend: Backend,
        threads: usize,
        wrap: Wrap,
    ) -> Result<Built<Self::T>, HodlrError>;
}

struct LaplaceProblem;

impl Problem for LaplaceProblem {
    type T = f64;
    fn workload(&self) -> Workload {
        Workload::Laplace
    }
    fn build(
        &self,
        n: usize,
        backend: Backend,
        threads: usize,
        wrap: Wrap,
    ) -> Result<Built<f64>, HodlrError> {
        let bie = LaplaceExteriorBie::new(StarContour::paper_contour(), n);
        let (tree, partition_s) = index_tree(n);
        build_from(
            self.workload(),
            &bie,
            tree,
            partition_s,
            backend,
            threads,
            wrap,
        )
    }
}

struct HelmholtzProblem;

impl Problem for HelmholtzProblem {
    type T = Complex64;
    fn workload(&self) -> Workload {
        Workload::Helmholtz
    }
    fn build(
        &self,
        n: usize,
        backend: Backend,
        threads: usize,
        wrap: Wrap,
    ) -> Result<Built<Complex64>, HodlrError> {
        let kappa = hodlr_bench::workloads::resolved_kappa(n);
        let bie =
            HelmholtzExteriorBie::with_paper_parameters(StarContour::paper_contour(), n, kappa);
        let (tree, partition_s) = index_tree(n);
        build_from(
            self.workload(),
            &bie,
            tree,
            partition_s,
            backend,
            threads,
            wrap,
        )
    }
}

/// The GP point set is fixed, like the BIE geometry, so every seed runs
/// the same covariance; the seed draws the right-hand sides.  Setup
/// partitions the points.
struct GpProblem;

const GP_POINTS_SEED: u64 = 0x6b3d;

impl Problem for GpProblem {
    type T = f64;
    fn workload(&self) -> Workload {
        Workload::Gp
    }
    fn build(
        &self,
        n: usize,
        backend: Backend,
        threads: usize,
        wrap: Wrap,
    ) -> Result<Built<f64>, HodlrError> {
        let w = self.workload();
        let start = Instant::now();
        let part = spatial_points(&mut StdRng::seed_from_u64(GP_POINTS_SEED), n, 3, LEAF);
        let partition_s = start.elapsed().as_secs_f64();
        // Length scale 8x the mean spacing, as in the scale-out family.
        let kernel = SquaredExponential {
            variance: 1.0,
            length_scale: 8.0 * (1.0 / n as f64).powf(1.0 / 3.0),
        };
        let source = covariance_source(&kernel, &part.points, 1e-2);
        build_from(w, &source, part.tree, partition_s, backend, threads, wrap)
    }
}

fn random_vec<T: Scalar>(rng: &mut StdRng, len: usize) -> Vec<T> {
    (0..len)
        .map(|_| {
            let re: f64 = rng.gen_range(-1.0..1.0);
            let im: f64 = rng.gen_range(-1.0..1.0);
            T::from_parts(T::Real::from_f64_real(re), T::Real::from_f64_real(im))
        })
        .collect()
}

fn counters_of(c: &CounterSnapshot) -> [(&'static str, f64); 5] {
    [
        ("launches", c.kernel_launches as f64),
        ("batch_entries", c.batch_entries as f64),
        ("flops", c.flops as f64),
        ("h2d_bytes", c.h2d_bytes as f64),
        ("d2h_bytes", c.d2h_bytes as f64),
    ]
}

/// The timings of one repetition.
#[derive(Default)]
struct Sample {
    setup_s: f64,
    factor_batched_s: f64,
    /// Seconds of every call of the solve and block-solve loops.
    solve_calls: Vec<f64>,
    block_calls: Vec<f64>,
    tts_s: f64,
}

/// The deterministic outcomes of one repetition, which must repeat
/// exactly across repetitions.
#[derive(Clone, Debug, PartialEq)]
struct Fingerprint {
    factor: CounterSnapshot,
    solve: CounterSnapshot,
    peak_bytes: u64,
    relres_bits: u64,
    entries: u64,
}

/// Everything one repetition measured.
struct Rep<T: Scalar> {
    sample: Sample,
    fingerprint: Fingerprint,
    relres: f64,
    matrix: HodlrMatrix<T>,
    /// The batched solution and, on the GP, log-determinant.
    x: Vec<T>,
    log_det: Option<(T::Real, T)>,
    /// The solution of the block solve.
    block_x: DenseMatrix<T>,
}

/// Relative residual `|b_j - A x_j| / |b_j|` of every column.
fn block_relres<T: Scalar>(a: &HodlrMatrix<T>, b: &DenseMatrix<T>, x: &DenseMatrix<T>) -> Vec<f64> {
    let ax = a.matmat(x);
    let norm = |v: &[T]| v.iter().map(|e| e.abs_sqr().to_f64()).sum::<f64>().sqrt();
    (0..b.cols())
        .map(|j| {
            let r: Vec<T> = ax
                .col(j)
                .iter()
                .zip(b.col(j))
                .map(|(p, q)| *p - *q)
                .collect();
            norm(&r) / norm(b.col(j))
        })
        .collect()
}

/// The seeded right-hand sides: one vector and one 32-column block.
pub(crate) struct Inputs<T> {
    b: Vec<T>,
    block: DenseMatrix<T>,
}

impl<T: Scalar> Inputs<T> {
    pub(crate) fn new(rng: &mut StdRng, n: usize) -> Self {
        Inputs {
            b: random_vec(rng, n),
            block: DenseMatrix::from_col_major(n, BLOCK_COLS, random_vec(rng, n * BLOCK_COLS)),
        }
    }
}

fn finite<T: Scalar>(v: &[T]) -> bool {
    v.iter().all(|x| x.is_finite())
}

/// One repetition's batched phases; the caller checks the serial backend.
/// With `full == false` only the time-to-solution pass and one block
/// solve run (the traced run's overhead passes).
#[allow(clippy::too_many_arguments)]
fn repetition<P: Problem>(
    p: &P,
    inputs: &Inputs<P::T>,
    threads: usize,
    wrap: Wrap,
    full: bool,
    tracer: &Tracer,
    rep: usize,
    tally: &mut Tally,
    gates: &mut Gates,
) -> Option<Rep<P::T>> {
    let w = p.workload();
    let b = &inputs.b;
    let root: SpanId = tracer.open("rep", None, rep);
    let parent = Some(root);
    let mut s = Sample::default();

    // Time-to-solution pass: build, batched factorize, first solve (and
    // log_det on the GP).
    let t0 = Instant::now();
    let span = tracer.open("hodlr.build", parent, rep);
    let built = tally.op("build", p.build(b.len(), Backend::Batched, threads, wrap))?;
    s.setup_s = t0.elapsed().as_secs_f64();
    tracer.close(
        span,
        &[
            ("source.entries", built.entries as f64),
            ("tree.partition_s", built.partition_s),
        ],
    );
    let hodlr = built.hodlr;
    let device = hodlr.device();
    let c0 = device.counters();
    let t1 = Instant::now();
    let span = tracer.open("factorize.batched", parent, rep);
    let fact = tally.op("batched factorize", hodlr.factorize())?;
    s.factor_batched_s = t1.elapsed().as_secs_f64();
    let c1 = device.counters();
    tracer.close(span, &counters_of(&c1.since(&c0)));
    let span = tracer.open("solve.batched", parent, rep);
    let x = tally.op("batched solve", fact.solve(b))?;
    let c2 = device.counters();
    tracer.close(span, &counters_of(&c2.since(&c1)));
    let log_det = if matches!(w, Workload::Gp) {
        let span = tracer.open("log_det.batched", parent, rep);
        let ld = tally.op("batched log_det", fact.log_det())?;
        tracer.close(span, &[]);
        Some(ld)
    } else {
        None
    };
    s.tts_s = t0.elapsed().as_secs_f64();
    let c3 = device.counters();
    gates.check(finite(&x), || {
        format!("{w:?}: batched solution is not finite")
    });
    if let Some((ld, sign)) = log_det {
        let q: f64 = b
            .iter()
            .zip(&x)
            .map(|(bi, xi)| (bi.conj() * *xi).real().to_f64())
            .sum();
        let ll = LogLikelihood::from_terms(q, ld.to_f64(), b.len());
        gates.check(ll.value.is_finite() && sign.real().to_f64() > 0.0, || {
            format!(
                "{w:?}: log-likelihood {} is not finite or K is not SPD",
                ll.value
            )
        });
    }
    let span = tracer.open("solve_block.batched", parent, rep);
    let xb = tally.op("block solve", fact.solve_block(&inputs.block))?;
    tracer.close(span, &counters_of(&device.counters().since(&c3)));
    gates.check(finite(xb.data()), || {
        format!("{w:?}: block solution is not finite")
    });

    let relres = hodlr.relative_residual(&x, b).to_f64();
    let fingerprint = Fingerprint {
        factor: c1.since(&c0),
        solve: c2.since(&c1),
        peak_bytes: hodlr.build_peak_bytes(),
        relres_bits: relres.to_bits(),
        entries: built.entries,
    };

    if full {
        let span = tracer.open("solve.batched.loop", parent, rep);
        let mut last = Vec::new();
        s.solve_calls = timed_calls(MIN_LOOP_S, |_| {
            if let Some(v) = tally.op("batched solve", fact.solve(b)) {
                last = v;
            }
        });
        tracer.close(span, &[]);
        gates.check(last == x, || {
            format!("{w:?}: repeated batched solves differ")
        });
        let span = tracer.open("solve_block.batched.loop", parent, rep);
        s.block_calls = timed_calls(MIN_LOOP_S, |_| {
            tally.op("block solve", fact.solve_block(&inputs.block));
        });
        tracer.close(span, &[]);
    }
    drop(fact);
    tracer.close(root, &[]);
    Some(Rep {
        sample: s,
        fingerprint,
        relres,
        matrix: hodlr
            .into_matrix()
            .expect("solver workloads build in working precision"),
        x,
        log_det,
        block_x: xb,
    })
}

/// Adopt `matrix` into the serial backend on a one-thread pool.
fn adopt_serial<T: SolveScalar>(
    matrix: HodlrMatrix<T>,
    sym: Symmetry,
    tally: &mut Tally,
) -> Option<Hodlr<T>> {
    tally.op(
        "adopt matrix",
        Hodlr::builder()
            .matrix(matrix)
            .symmetry(sym)
            .backend(Backend::Serial)
            .threads(1)
            .build(),
    )
}

/// Check the serial solution of `b` and log-determinant against the
/// batched `x` and `log_det`, bitwise.
fn check_serial<T: SolveScalar>(
    w: Workload,
    fact: &Factorization<'_, T>,
    b: &[T],
    x: &[T],
    log_det: Option<(T::Real, T)>,
    tally: &mut Tally,
    gates: &mut Gates,
) -> Option<()> {
    let xs = tally.op("serial solve", fact.solve(b))?;
    gates.check(xs == x, || {
        format!("{w:?}: serial and batched solutions differ bitwise")
    });
    if let Some(ld) = log_det {
        let lds = tally.op("serial log_det", fact.log_det())?;
        gates.check(lds == ld, || {
            format!("{w:?}: serial and batched log_det differ bitwise")
        });
    }
    Some(())
}

/// Run a solver workload: untraced repetitions (end-to-end metrics) or the
/// traced run (per-layer metrics).
pub fn run(
    w: Workload,
    args: &Args,
    tracer: &Tracer,
    m: &mut Metrics,
    gates: &mut Gates,
    tally: &mut Tally,
) {
    match w {
        Workload::Laplace => run_problem(&LaplaceProblem, args, tracer, m, gates, tally),
        Workload::Helmholtz => run_problem(&HelmholtzProblem, args, tracer, m, gates, tally),
        Workload::Gp => run_problem(&GpProblem, args, tracer, m, gates, tally),
        Workload::Tenant => unreachable!("the tenant is measured inside serve-mixed"),
    }
}

fn run_problem<P: Problem>(
    p: &P,
    args: &Args,
    tracer: &Tracer,
    m: &mut Metrics,
    gates: &mut Gates,
    tally: &mut Tally,
) {
    let w = p.workload();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xb0b);
    let inputs = Inputs::new(&mut rng, w.n());
    let threads = args.threads;
    if args.trace {
        traced(p, &inputs, threads, args.seconds, tracer, m, gates, tally);
        return;
    }

    // The warm-up repetition runs at a quarter of the order: it faults in
    // the code paths and spins up the pools for a fraction of the cost of
    // a full repetition, which leaves room for one more measured one.
    let warm_inputs = Inputs::new(&mut rng, w.n() / 4);
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut first: Option<(Fingerprint, u64)> = None;
    let mut relres = Vec::new();
    let mut measured_s = 0.0f64;
    // The serial factorization that every measured repetition's bitwise
    // serial-versus-batched checks use.
    let kept: OnceCell<Hodlr<P::T>> = OnceCell::new();
    let mut kept_fact: Option<Factorization<'_, P::T>> = None;
    for rep in 0.. {
        let t = Instant::now();
        let rep_inputs = if rep == 0 { &warm_inputs } else { &inputs };
        let Some(mut r) = repetition(
            p,
            rep_inputs,
            threads,
            Wrap::Off,
            true,
            tracer,
            rep,
            tally,
            gates,
        ) else {
            break;
        };
        // Serial backend on a one-thread pool, over the same matrix.  The
        // warm-up checks its own quarter-order matrix.
        let b = &rep_inputs.b;
        let mut untimed_s = 0.0;
        if rep == 0 {
            let Some(serial) = adopt_serial(r.matrix, w.symmetry(), tally) else {
                break;
            };
            let Some(fact) = tally.op("serial factorize", serial.factorize()) else {
                break;
            };
            if check_serial(w, &fact, b, &r.x, r.log_det, tally, gates).is_none() {
                break;
            }
            drop(fact);
            r.matrix = serial
                .into_matrix()
                .expect("adopted matrices stay in working precision");
        } else {
            if kept_fact.is_none() {
                let once = Instant::now();
                let Some(serial) = adopt_serial(r.matrix.clone(), w.symmetry(), tally) else {
                    break;
                };
                let serial = kept.get_or_init(|| serial);
                let Some(fact) = tally.op("serial factorize", serial.factorize()) else {
                    break;
                };
                kept_fact = Some(fact);
                untimed_s = once.elapsed().as_secs_f64();
            }
            let fact = kept_fact.as_ref().expect("factorized above");
            if check_serial(w, fact, b, &r.x, r.log_det, tally, gates).is_none() {
                break;
            }
        }
        if rep > 0 {
            measured_s += t.elapsed().as_secs_f64() - untimed_s;
            if rep == 1 {
                // Deterministic, so checked once and untimed, over all 33
                // right-hand sides.
                relres = block_relres(&r.matrix, &inputs.block, &r.block_x);
                relres.push(r.relres);
            }
            check_repeats(w, &mut first, &r, gates);
        }
        let s = &r.sample;
        eprintln!(
            "perfbench: rep {rep}{} setup {:.3} factor {:.3} solve {:.4} block {:.1} tts {:.3}",
            if rep == 0 { " (warm-up)" } else { "" },
            s.setup_s,
            s.factor_batched_s,
            median(&s.solve_calls),
            BLOCK_COLS as f64 / median(&s.block_calls),
            s.tts_s
        );
        if rep > 0 {
            samples.push(r.sample);
        }
        // Run another repetition when it would overshoot `--seconds` by
        // less than stopping now would fall short of it.
        let next_s = measured_s / samples.len().max(1) as f64;
        if samples.len() >= MIN_MEASURED
            && start.elapsed().as_secs_f64() + next_s / 2.0 > args.seconds
        {
            break;
        }
    }
    let Some((fp, _)) = first else {
        return;
    };
    let k = samples.len();
    let med = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    m.push("setup_s", med(|s| s.setup_s), "s", k);
    m.push("factor_s.batched", med(|s| s.factor_batched_s), "s", k);
    // The loops' figures are medians over every call of the run.
    let calls = |f: fn(&Sample) -> &[f64]| -> Vec<f64> {
        samples.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let solves = calls(|s| &s.solve_calls);
    let blocks = calls(|s| &s.block_calls);
    m.push("solve_s.batched", median(&solves), "s", solves.len());
    m.push(
        "block_rhs_per_s",
        BLOCK_COLS as f64 / median(&blocks),
        "1/s",
        blocks.len(),
    );
    m.push("time_to_solution_s", med(|s| s.tts_s), "s", k);
    // The median over the right-hand sides is the reported figure; the
    // worst one is held to the ceiling.
    m.push("relres", median(&relres), "ratio", relres.len());
    m.push("peak_bytes", fp.peak_bytes as f64, "bytes", 1);
    let worst = relres.iter().copied().fold(0.0, f64::max);
    gates.check(worst <= w.relres_ceiling(), || {
        format!(
            "{w:?}: relres {worst:e} above its ceiling {:e}",
            w.relres_ceiling()
        )
    });
    gates.check(m.0.iter().all(|x| x.value.is_finite()), || {
        format!("{w:?}: a metric is not finite")
    });
}

/// Gate: every deterministic count repeats exactly across repetitions.
fn check_repeats<T: Scalar>(
    w: Workload,
    first: &mut Option<(Fingerprint, u64)>,
    r: &Rep<T>,
    gates: &mut Gates,
) {
    let storage = r.matrix.storage_bytes();
    match first {
        None => *first = Some((r.fingerprint.clone(), storage)),
        Some((fp, bytes)) => gates.check(*fp == r.fingerprint && *bytes == storage, || {
            format!(
                "{w:?}: deterministic counts changed between repetitions: {fp:?} vs {:?}",
                r.fingerprint
            )
        }),
    }
}

/// Whether two HODLR matrices are bitwise identical.
pub(crate) fn same_matrix<T: Scalar>(a: &HodlrMatrix<T>, b: &HodlrMatrix<T>) -> bool {
    let bits = |v: &T| (v.real().to_f64().to_bits(), v.imag().to_f64().to_bits());
    let same = |x: &[T], y: &[T]| x.len() == y.len() && x.iter().map(bits).eq(y.iter().map(bits));
    same(a.ubig().data(), b.ubig().data())
        && (a.shares_bases() || same(a.vbig().data(), b.vbig().data()))
        && a.diag_blocks().len() == b.diag_blocks().len()
        && a.diag_blocks()
            .iter()
            .zip(b.diag_blocks())
            .all(|(x, y)| same(x.data(), y.data()))
}

/// Sum of ranks, stored low-rank entries, and median rank over all
/// off-diagonal blocks.
fn rank_stats<T: Scalar>(matrix: &HodlrMatrix<T>) -> (u64, u64, usize) {
    let tree = matrix.tree();
    let mut ranks = Vec::new();
    let mut stored = 0u64;
    let bases = if matrix.shares_bases() { 1 } else { 2 };
    for level in 1..=matrix.levels() {
        for node in tree.level_nodes(level) {
            let r = matrix.node_rank(node);
            ranks.push(r);
            stored += (bases * r * tree.node_size(node)) as u64;
        }
    }
    ranks.sort_unstable();
    let sum = ranks.iter().map(|&r| r as u64).sum();
    (
        sum,
        stored,
        ranks.get(ranks.len() / 2).copied().unwrap_or(0),
    )
}

/// The traced run: a warm-up pass, a one-thread breakdown build (so self
/// times add up), the `hodlr-la` probes, then alternating untraced and
/// traced time-to-solution passes on `threads` threads whose difference
/// is the tracing overhead, until `seconds` are used.
#[allow(clippy::too_many_arguments)]
pub(crate) fn traced<P: Problem>(
    p: &P,
    inputs: &Inputs<P::T>,
    threads: usize,
    seconds: f64,
    tracer: &Tracer,
    m: &mut Metrics,
    gates: &mut Gates,
    tally: &mut Tally,
) {
    let w = p.workload();
    let start = Instant::now();
    let off = Tracer::new(false);
    let Some(warm) = repetition(p, inputs, threads, Wrap::Off, false, &off, 0, tally, gates) else {
        return;
    };
    let mut first = None;
    check_repeats(w, &mut first, &warm, gates);

    // Breakdown: build on one thread through the counting wrapper, so the
    // builder's wall time and the source's time are in one currency.
    let span = tracer.open("breakdown.build", None, 0);
    let Some(built) = tally.op(
        "build",
        p.build(w.n(), Backend::Serial, 1, Wrap::CountAndTime),
    ) else {
        return;
    };
    let source_s = built.entries as f64 * built.ns_per_entry * 1e-9;
    tracer.close(
        span,
        &[
            ("source.entries", built.entries as f64),
            ("source.ns_per_entry", built.ns_per_entry),
            ("tree.partition_s", built.partition_s),
            ("builder_s", built.builder_s),
        ],
    );
    let matrix = built.hodlr.matrix().expect("working precision");
    gates.check(same_matrix(matrix, &warm.matrix), || {
        format!("{w:?}: the build through the counting wrapper differs from the plain build")
    });
    let (rank_sum, stored, median_rank) = rank_stats(matrix);
    let report = ComplexityReport::for_matrix(matrix);
    let factor_model = if w.symmetry() == Symmetry::General {
        report.factorization_flops
    } else {
        report.model.symmetric_factorization_flops()
    };

    let span = tracer.open("hodlr_la.probes", None, 0);
    probes::run(median_rank, m);
    tracer.close(span, &[]);

    // Alternate untraced and traced passes; at least `MIN_PAIRS` pairs.
    let mut plain = Vec::new();
    let mut with = Vec::new();
    let mut traced_rep = None;
    let mut longest = 0.0f64;
    for rep in 1.. {
        let t = Instant::now();
        let Some(a) = repetition(
            p,
            inputs,
            threads,
            Wrap::Off,
            false,
            &off,
            rep,
            tally,
            gates,
        ) else {
            return;
        };
        let Some(b) = repetition(
            p,
            inputs,
            threads,
            Wrap::Count,
            false,
            tracer,
            rep,
            tally,
            gates,
        ) else {
            return;
        };
        longest = longest.max(t.elapsed().as_secs_f64());
        check_repeats(w, &mut first, &a, gates);
        gates.check(same_matrix(&a.matrix, &b.matrix), || {
            format!("{w:?}: traced build differs from the untraced build")
        });
        gates.check(b.fingerprint.entries == built.entries, || {
            format!("{w:?}: entry count differs between thread counts")
        });
        plain.push(a.sample.tts_s);
        with.push(b.sample.tts_s);
        traced_rep = Some(b);
        if with.len() >= MIN_PAIRS && start.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    let b = traced_rep.expect("at least one traced pass");
    let f = &b.fingerprint;
    let factor_s = tracer
        .self_seconds()
        .get("factorize.batched")
        .copied()
        .unwrap_or(0.0)
        / with.len() as f64;

    m.push(
        "batch.factor.launches",
        f.factor.kernel_launches as f64,
        "count",
        1,
    );
    m.push(
        "batch.factor.entries_per_launch",
        f.factor.batch_entries as f64 / f.factor.kernel_launches.max(1) as f64,
        "ratio",
        1,
    );
    m.push("batch.factor.flops", f.factor.flops as f64, "flop", 1);
    m.push(
        "batch.factor.gflops",
        f.factor.flops as f64 / factor_s / 1e9,
        "GFLOP/s",
        with.len(),
    );
    m.push(
        "batch.solve.launches",
        f.solve.kernel_launches as f64,
        "count",
        1,
    );
    m.push("batch.solve.flops", f.solve.flops as f64, "flop", 1);
    m.push(
        "batch.h2d_bytes",
        (f.factor.h2d_bytes + f.solve.h2d_bytes) as f64,
        "bytes",
        1,
    );
    m.push(
        "batch.d2h_bytes",
        (f.factor.d2h_bytes + f.solve.d2h_bytes) as f64,
        "bytes",
        1,
    );
    m.push(
        "batch.peak_device_bytes",
        f.factor.peak_allocated_bytes as f64,
        "bytes",
        1,
    );

    m.push("core.max_rank", matrix.max_rank() as f64, "count", 1);
    m.push("core.rank_sum", rank_sum as f64, "count", 1);
    m.push("core.levels", matrix.levels() as f64, "count", 1);
    m.push(
        "core.storage_bytes",
        matrix.storage_bytes() as f64,
        "bytes",
        1,
    );
    m.push("core.factor.model_flops", factor_model as f64, "flop", 1);
    m.push(
        "core.solve.model_flops",
        report.solve_flops as f64,
        "flop",
        1,
    );
    m.push(
        "core.factor.metered_over_model",
        f.factor.flops as f64 / factor_model as f64,
        "ratio",
        1,
    );

    // Estimates, not spans: the source time is the entry count times the
    // probe's time per entry, and the compressor gets the rest of the
    // builder's time, so any bias of the probe lands there.
    let compress_s = built.builder_s - source_s;
    gates.check(compress_s >= 0.0, || {
        format!(
            "{w:?}: estimated source time {source_s} s exceeds the builder's {} s",
            built.builder_s
        )
    });
    m.push("source.entries", built.entries as f64, "count", 1);
    m.push("source.self_s_est", source_s, "s", 1);
    m.push("source.ns_per_entry", built.ns_per_entry, "ns", 1);
    m.push("compress.self_s_est", compress_s, "s", 1);
    m.push(
        "compress.entries_per_stored",
        built.entries as f64 / stored.max(1) as f64,
        "ratio",
        1,
    );
    m.push("tree.partition_s", built.partition_s, "s", 1);

    m.push("trace.tts_untraced_s", median(&plain), "s", plain.len());
    m.push("trace.tts_traced_s", median(&with), "s", with.len());
    let pairs: Vec<(f64, f64)> = plain.iter().copied().zip(with.iter().copied()).collect();
    let overhead = Overhead::of(&pairs);
    eprintln!(
        "perfbench: {w:?}: {} on time_to_solution_s",
        overhead.describe()
    );
    m.push(
        "trace.overhead_frac",
        overhead.frac,
        "ratio",
        overhead.pairs,
    );
    m.push(
        "trace.overhead_spread",
        overhead.spread,
        "ratio",
        overhead.pairs,
    );
}
