//! # hodlr-bench — harnesses that regenerate the paper's tables and figures
//!
//! One binary per table/figure of the evaluation section:
//!
//! | Binary | Paper artefact | Workload |
//! |---|---|---|
//! | `table3` | Table III | RPY kernel matrices (Section IV-A) |
//! | `fig5` | Fig. 5 | scaling of the Table III runs (CSV series) |
//! | `table4` | Table IV (a)/(b) | Laplace exterior BIE (Section IV-B) |
//! | `fig7` | Fig. 7 | scaling of the Table IV runs (CSV series) |
//! | `table5` | Table V (a)/(b) | Helmholtz exterior BIE (Section IV-C) |
//! | `fig8` | Fig. 8 | speedups of the Table V runs |
//! | `fig9` | Fig. 9 | GFlop/s of factorization and solve |
//! | `ranks` | Appendix | per-level off-diagonal rank profiles |
//! | `iterative` | Table V(b) extension | preconditioned GMRES/BiCGStab/mixed-precision over all three workloads |
//! | `kernels` | (infrastructure) | gemm/LU/QR GFLOP/s by size, scalar and thread count vs the naive reference kernel |
//! | `gp` | Section III-E(a) application | GP log-marginal likelihood (solve + product-form `log_det`) by kernel family, backend and tolerance, vs the dense Cholesky oracle |
//! | `spectral` | (spectral subsystem) | dense EVD/SVD kernel accuracy, HODLR-accelerated Lanczos eigenpairs and the SLQ log-determinant vs the product form, with 1/2/8-thread bitwise-determinism verdicts |
//!
//! Every binary accepts `--full` to run the paper's original problem sizes
//! (hours on a laptop; the defaults are scaled down so a full sweep finishes
//! in minutes) and `--sizes 4096,8192,...` to override the sweep explicitly.
//! All harnesses print the same row layout as the corresponding table —
//! `N`, factorization time `t_f`, solve time `t_s`, memory `mem`, relative
//! residual `relres` per solver — so paper-vs-measured comparisons are
//! line-by-line.
//!
//! The wall-clock columns are measured on the virtual batched-BLAS device of
//! `hodlr-batch`; absolute numbers therefore reflect CPU execution, while
//! the *shape* — scaling slopes, memory footprints, residuals, who wins and
//! where the crossovers are among the CPU solvers — is what reproduces the
//! paper (see "Deviations from the paper" in ARCHITECTURE.md for the
//! substitution argument).
//!
//! Every row records the rayon pool size in a `threads` column (set
//! `HODLR_NUM_THREADS` to sweep it), and every binary additionally emits a
//! machine-readable `BENCH_<name>.json` (see [`json`]; override the path
//! with `HODLR_BENCH_JSON`) so successive PRs accumulate a comparable perf
//! trajectory.  The `kernels` binary (`--smoke` for the CI-sized sweep) is
//! the dense-kernel trajectory: gemm/LU/QR GFLOP/s, blocked-vs-reference
//! speedup, and bitwise-determinism verdicts across 1/2/8-thread pools.

pub mod gp;
pub mod harness;
pub mod iterative;
pub mod json;
pub mod kernels;
pub mod scale;
pub mod serve;
pub mod spectral;
pub mod workloads;

pub use gp::{print_gp_table, run_gp_bench, GpBenchConfig, GpRow};
pub use harness::{measure_solvers, print_csv, print_table, MeasureConfig, SolverRow};
pub use iterative::{
    measure_block_direct, measure_iterative, print_iterative_table, IterativeConfig, IterativeRow,
};
pub use json::{
    gp_rows_to_json, iterative_rows_to_json, kernel_rows_to_json, scale_rows_to_json,
    serve_rows_to_json, solver_rows_to_json, spectral_rows_to_json, write_gp_json,
    write_iterative_json, write_kernel_json, write_scale_json, write_serve_json, write_solver_json,
    write_spectral_json,
};
pub use kernels::{print_kernel_table, run_kernel_bench, KernelBenchConfig, KernelRow};
pub use scale::{print_scale_table, run_scale_bench, ScaleBenchConfig, ScaleRow};
pub use serve::{print_serve_table, run_serve_bench, ServeBenchConfig, ServeRow};
pub use spectral::{print_spectral_table, run_spectral_bench, SpectralBenchConfig, SpectralRow};
pub use workloads::{
    helmholtz_hodlr, kernel_hodlr, laplace_hodlr, parse_args, rpy_hodlr, SweepArgs,
};
