//! The `serve-mixed` workload: open-loop traffic from many tenants into
//! one `hodlr_serve::SolveService<f64>`.
//!
//! Arrivals are seeded Poisson; each request's tenant is drawn from a
//! seeded Zipf popularity over more tenants than the cache admits.  Hot
//! tenants hit the cache and are served by the drain's block solves,
//! coalesced when requests for one tenant queue together; cold tenants
//! miss, and `submit` builds, factorizes, inserts and evicts.  The
//! generator hands due requests to client threads that call `submit`; one
//! drainer thread calls `drain()` whenever requests are queued.  Latency
//! runs from each request's *due* time to the end of the drain that
//! delivered its result, so a stall anywhere counts against every request
//! it delays; the generator reports its own lateness.
//!
//! Open-loop latency swings with the host far past any usable bound, so
//! the end-to-end metrics time the service's request paths in closed
//! loop instead, on a freshly set-up service after every traffic window:
//! a cache hit, a coalesced block of hits, a cold miss, and the tenant
//! factorization every miss runs.

use crate::report::{Gates, Metrics, Tally};
use crate::solver::{self, Built, Inputs, Problem, Workload, Wrap};
use crate::stats::{median, nearest_rank, timed_calls, Overhead};
use crate::trace::Tracer;
use crate::Args;
use hodlr::{scaled_residual, Backend, Factorize, Hodlr, Precision, TreePolicy};
use hodlr_bie::{LaplaceExteriorBie, StarContour};
use hodlr_compress::{CompressionMethod, MatrixEntrySource};
use hodlr_gp::{covariance_source, regular_grid_1d, Matern, SquaredExponential};
use hodlr_la::HodlrError;
use hodlr_serve::{CacheConfig, CacheKey, ServeConfig, ServeError, SolveService, Ticket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Registered tenants; more than the cache admits.
const TENANTS: usize = 24;
/// Factorizations the cache keeps resident.
const CACHE_ENTRIES: usize = 8;
/// Order of every tenant's operator.
pub const TENANT_N: usize = 256;
pub const TENANT_TOL: f64 = 1e-8;
/// Zipf exponent of tenant popularity.
const ZIPF_S: f64 = 1.1;
/// Offered rate of the traffic windows, requests per second.
const RATE: f64 = 200.0;
/// Requests of the discarded warm-up traffic.
const WARMUP_REQUESTS: usize = 200;
/// Requests per traffic window of the untraced run.
const WINDOW_REQUESTS: usize = 200;
/// Requests of the traced run's latency window: its p99 keeps 10 samples
/// beyond it.
const LATENCY_REQUESTS: usize = 1000;
/// Rounds of traffic and closed loops a run makes even when they overrun
/// `--seconds`.
const MIN_ROUNDS: usize = 3;
/// Timed set-ups per round.
const SETUPS_PER_ROUND: usize = 3;
/// Shortest timed closed loop; every cycle in it is one sample.
const MIN_LOOP_S: f64 = 0.5;
/// Requests to one tenant that one drain coalesces into a block solve.
const BLOCK: usize = 32;
/// Chunks of the traced window, each one untraced/traced pair of the
/// tracing overhead measurement.
const OVERHEAD_CHUNKS: usize = 5;
/// Requests per ladder trial: p99 keeps 10 samples beyond it.
const RUNG_REQUESTS: usize = 1000;
/// Latency limit on p99.
const LIMIT_S: f64 = 0.100;
/// Rate ladder: `LADDER_BASE * LADDER_STEP^k`, 6% steps, k >= 0.
const LADDER_BASE: f64 = 150.0;
const LADDER_STEP: f64 = 1.06;
/// The rung of the traced run's ladder trial (767 rps, about 4x the
/// traffic rate and below the knee of the machine this was written on).
const START_RUNG: i32 = 28;
/// Client threads that call `submit`.
const CLIENTS: usize = 2;
/// Distinct right-hand sides the requests draw from.  The pool is fixed
/// and small, so every tenant's pairs are all served in one window and
/// `relres` does not depend on which ones the seed happened to draw.
const RHS_POOL: usize = 8;
const RHS_POOL_SEED: u64 = 0x5e7e;
/// A request unresolved this long after the generator stopped fails the
/// run's accounting gate.
const RESOLVE_TIMEOUT: Duration = Duration::from_secs(30);

/// One scheduled request: when it is due (seconds after the phase start),
/// its tenant, and its right-hand side.
#[derive(Copy, Clone, Debug)]
pub struct Arrival {
    pub due_s: f64,
    pub tenant: usize,
    pub rhs: usize,
}

/// `count` Poisson arrivals at `rate`, tenants drawn from `weights`.
pub fn schedule(seed: u64, rate: f64, count: usize, weights: &[f64]) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let total: f64 = weights.iter().sum();
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            let mut pick = rng.gen_range(0.0..total);
            let tenant = weights
                .iter()
                .position(|&w| {
                    pick -= w;
                    pick < 0.0
                })
                .unwrap_or(weights.len() - 1);
            Arrival {
                due_s: t,
                tenant,
                rhs: rng.gen_range(0..RHS_POOL),
            }
        })
        .collect()
}

/// Drive `arrivals` open-loop from `start`: wait until each request is
/// due, hand it to `send`, and return how late each was sent (seconds).
/// `send` returns `false` to stop early.
pub fn drive(
    arrivals: &[Arrival],
    start: Instant,
    mut send: impl FnMut(usize) -> bool,
) -> Vec<f64> {
    let mut lateness = Vec::with_capacity(arrivals.len());
    for (i, a) in arrivals.iter().enumerate() {
        let due = start + Duration::from_secs_f64(a.due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lateness.push(Instant::now().saturating_duration_since(due).as_secs_f64());
        if !send(i) {
            break;
        }
    }
    lateness
}

fn tenant_key(t: usize) -> CacheKey {
    CacheKey::new(
        format!("tenant-{t}/n={TENANT_N}"),
        &TreePolicy::LeafSize(64),
        TENANT_TOL,
        Backend::Batched,
        Precision::Full,
    )
}

/// Tenant `t`'s operator: the GP (Matern-3/2, squared-exponential) and
/// Laplace-BIE archetypes of the serve family, each tenant with its own
/// parameters.  Each tenant builds, factorizes and solves on a one-thread
/// pool, so misses on the client threads and drains on the drainer thread
/// do not oversubscribe the cores between them.
fn tenant_build(t: usize) -> Result<Hodlr<f64>, HodlrError> {
    fn build(source: &impl MatrixEntrySource<f64>) -> Result<Hodlr<f64>, HodlrError> {
        Hodlr::builder()
            .source(source)
            .leaf_size(64)
            .tolerance(TENANT_TOL)
            .method(CompressionMethod::AcaRook)
            .backend(Backend::Batched)
            .threads(1)
            .build()
    }
    let shift = 0.05 * (t % 4) as f64;
    let points = regular_grid_1d(TENANT_N, 0.0, 1.0);
    match t % 3 {
        0 => build(&covariance_source(&matern_kernel(shift), &points, 1e-2)),
        1 => build(&covariance_source(
            &SquaredExponential {
                variance: 1.0,
                length_scale: 0.15 + shift,
            },
            &points,
            1e-2,
        )),
        _ => build(&LaplaceExteriorBie::new(
            StarContour::paper_contour(),
            TENANT_N,
        )),
    }
}

/// The Matern-3/2 kernel of the GP tenants `t % 3 == 0`, whose length
/// scale is shifted by `shift`.
fn matern_kernel(shift: f64) -> Matern {
    Matern::three_halves(1.0, 0.2 + shift)
}

/// Tenant 0, the most popular, as a solver problem: the serve-mixed
/// traced run measures the layers under the service on it the way the
/// solver workloads measure theirs.
struct HotTenant;

impl Problem for HotTenant {
    type T = f64;
    fn workload(&self) -> Workload {
        Workload::Tenant
    }
    fn build(
        &self,
        n: usize,
        backend: Backend,
        threads: usize,
        wrap: Wrap,
    ) -> Result<Built<f64>, HodlrError> {
        let points = regular_grid_1d(n, 0.0, 1.0);
        let kernel = matern_kernel(0.0);
        let source = covariance_source(&kernel, &points, 1e-2);
        let (tree, partition_s) = solver::index_tree(n);
        solver::build_from(
            Workload::Tenant,
            &source,
            tree,
            partition_s,
            backend,
            threads,
            wrap,
        )
    }
}

fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

fn zipf_weights() -> Vec<f64> {
    (0..TENANTS)
        .map(|t| 1.0 / ((t + 1) as f64).powf(ZIPF_S))
        .collect()
}

/// Construct the service, register every tenant, and warm the cache with
/// one request to each of the `CACHE_ENTRIES` most popular tenants.
fn setup(pool: &[Vec<f64>], tally: &mut Tally) -> SolveService<f64> {
    let service = SolveService::new(ServeConfig {
        cache: CacheConfig {
            max_entries: CACHE_ENTRIES,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    });
    for t in 0..TENANTS {
        service.register_tenant(tenant_name(t), tenant_key(t), move || tenant_build(t));
    }
    let tickets: Vec<Ticket<f64>> = (0..CACHE_ENTRIES)
        .filter_map(|t| {
            tally.op(
                "warm submit",
                service.submit(&tenant_name(t), pool[t % RHS_POOL].clone()),
            )
        })
        .collect();
    service.drain();
    for t in tickets {
        tally.op("warm solve", t.wait());
    }
    service
}

/// [`setup`], timed into `setups`.
fn timed_setup(pool: &[Vec<f64>], tally: &mut Tally, setups: &mut Vec<f64>) -> SolveService<f64> {
    let t = Instant::now();
    let service = setup(pool, tally);
    setups.push(t.elapsed().as_secs_f64());
    service
}

/// One request's outcome for the residual check: tenant, right-hand side
/// in the pool, solution.
type Served = (usize, usize, Vec<f64>);

/// The closed-loop samples of a run: seconds per item, one sample per
/// timed cycle.
#[derive(Default)]
struct Loops {
    /// Per tenant factorization.
    factor: Vec<f64>,
    /// Per cache-hit request.
    solve: Vec<f64>,
    /// Per request of the coalesced blocks of hits.
    block: Vec<f64>,
    /// Per cold-miss request.
    miss: Vec<f64>,
}

/// Time whole cycles of `cycle`, each handling `items` items, over a loop
/// at least `MIN_LOOP_S` long, and append each cycle's seconds per item
/// to `out`.  `cycle` is told whether it runs for the first time.
fn per_item(out: &mut Vec<f64>, items: usize, mut cycle: impl FnMut(bool)) {
    let calls = timed_calls(MIN_LOOP_S, |i| cycle(i == 0));
    out.extend(calls.iter().map(|s| s / items as f64));
}

/// Time the request paths in closed loop on `service`, freshly set up so
/// that its cache holds the `CACHE_ENTRIES` most popular tenants:
///
/// * factor: `factorize` of every tenant's operator, the work each miss
///   runs after its build;
/// * solve: one request to a cached tenant through `solve_now` (submit,
///   drain, result);
/// * block: `BLOCK` requests to one cached tenant, which one drain
///   coalesces into one block solve;
/// * miss: one request to a cold tenant through `solve_now`: build,
///   factorize, insert, evict, solve.  The loop cycles through the
///   `TENANTS - CACHE_ENTRIES` cold tenants, more than the LRU cache
///   holds, so every request misses.
///
/// The samples go to `loops`, the first cycle's solutions to `served`.
fn closed_loops(
    service: &SolveService<f64>,
    ops: &[Hodlr<f64>],
    pool: &[Vec<f64>],
    tally: &mut Tally,
    gates: &mut Gates,
    loops: &mut Loops,
    served: &mut Vec<Served>,
) {
    let names: Vec<String> = (0..TENANTS).map(tenant_name).collect();
    per_item(&mut loops.factor, ops.len(), |_| {
        for op in ops {
            tally.op("tenant factorize", op.factorize());
        }
    });
    per_item(&mut loops.solve, CACHE_ENTRIES, |first| {
        for (t, name) in names.iter().enumerate().take(CACHE_ENTRIES) {
            let rhs = t % RHS_POOL;
            let x = tally.op("hit solve", service.solve_now(name, &pool[rhs]));
            if let (true, Some(x)) = (first, x) {
                served.push((t, rhs, x));
            }
        }
    });
    per_item(&mut loops.block, CACHE_ENTRIES * BLOCK, |first| {
        for (t, name) in names.iter().enumerate().take(CACHE_ENTRIES) {
            let tickets: Vec<(usize, Ticket<f64>)> = (0..BLOCK)
                .filter_map(|j| {
                    let rhs = j % RHS_POOL;
                    let ticket = service.submit(name, pool[rhs].clone());
                    tally.op("block submit", ticket).map(|k| (rhs, k))
                })
                .collect();
            let report = service.drain();
            gates.check(report.requests == BLOCK && report.groups == 1, || {
                format!(
                    "a block of {BLOCK} requests to tenant {t} drained as {} requests in {} groups",
                    report.requests, report.groups
                )
            });
            for (rhs, k) in tickets {
                let x = tally.op("block solve", k.wait());
                if let (true, Some(x)) = (first, x) {
                    served.push((t, rhs, x));
                }
            }
        }
    });
    let misses = service.cache_stats().misses;
    let mut requests = 0u64;
    per_item(&mut loops.miss, TENANTS - CACHE_ENTRIES, |first| {
        for (t, name) in names.iter().enumerate().skip(CACHE_ENTRIES) {
            let rhs = t % RHS_POOL;
            requests += 1;
            let x = tally.op("miss solve", service.solve_now(name, &pool[rhs]));
            if let (true, Some(x)) = (first, x) {
                served.push((t, rhs, x));
            }
        }
    });
    let missed = service.cache_stats().misses - misses;
    gates.check(missed == requests, || {
        format!("{missed} of {requests} cold requests missed the cache")
    });
}

/// One drain cycle as the drainer saw it (seconds after the phase start).
#[derive(Copy, Clone, Debug)]
struct Drain {
    start_s: f64,
    end_s: f64,
}

/// What one phase of traffic measured.
struct Phase {
    /// Per request sent: due-to-result latency, `INFINITY` if it failed.
    latency_s: Vec<f64>,
    lateness_s: Vec<f64>,
    /// Per request sent: seconds after the phase start `submit` returned,
    /// and whether it missed the cache (traced phases only).
    submitted_s: Vec<f64>,
    missed: Vec<bool>,
    results: Vec<Option<Vec<f64>>>,
    drains: Vec<Drain>,
    failed: u64,
    unresolved: usize,
    aborted: bool,
    wall_s: f64,
}

/// One submitted request as the drainer receives it from a client.
struct Sent {
    index: usize,
    ticket: Result<Ticket<f64>, ServeError>,
    /// Seconds after the phase start `submit` returned.
    submitted_s: f64,
    /// Whether the cache's miss count rose across the call (traced runs;
    /// a concurrent client's miss can be attributed to this call).
    missed: bool,
}

/// Run one phase of open-loop traffic; stop generating once more than
/// `abort_backlog` requests are dispatched and unresolved.
///
/// The generator only keeps time: it hands each due request to one of
/// `CLIENTS` client threads, which call `submit`.  A miss builds and
/// factorizes inside `submit`, so a lone client thread would stall every
/// later request behind one cold tenant, a queue of the load generator's
/// making rather than of the service's.
fn phase(
    service: &SolveService<f64>,
    arrivals: &[Arrival],
    pool: &[Vec<f64>],
    keep_results: bool,
    tracer: &Tracer,
    abort_backlog: usize,
) -> Phase {
    let names: Vec<String> = (0..TENANTS).map(tenant_name).collect();
    let outstanding = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Sent>();
    let (work_tx, work_rx) = mpsc::channel::<usize>();
    let work_rx = Mutex::new(work_rx);
    let start = Instant::now() + Duration::from_millis(2);
    let secs = move |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let mut aborted = false;

    let (lateness_s, drained) = std::thread::scope(|s| {
        let drainer =
            s.spawn(|| drain_loop(service, rx, arrivals.len(), &outstanding, tracer, secs));
        for _ in 0..CLIENTS {
            let tx = tx.clone();
            let (work_rx, names) = (&work_rx, &names);
            s.spawn(move || loop {
                let next = work_rx.lock().expect("a client thread panicked").recv();
                let Ok(index) = next else { break };
                let a = arrivals[index];
                let misses = tracer.enabled().then(|| service.cache_stats().misses);
                let span = tracer.open("serve.submit", None, index);
                let ticket = service.submit(&names[a.tenant], pool[a.rhs].clone());
                let missed = misses.is_some_and(|m| service.cache_stats().misses > m);
                tracer.close(span, &[("miss", f64::from(u8::from(missed)))]);
                let sent = Sent {
                    index,
                    ticket,
                    submitted_s: secs(Instant::now()),
                    missed,
                };
                tx.send(sent).expect("the drainer outlives the clients");
            });
        }
        drop(tx);
        let lateness = drive(arrivals, start, |i| {
            if outstanding.load(Ordering::Relaxed) > abort_backlog {
                aborted = true;
                return false;
            }
            outstanding.fetch_add(1, Ordering::Relaxed);
            work_tx.send(i).expect("the clients outlive the generator");
            true
        });
        drop(work_tx);
        let drained = drainer.join().expect("drainer thread panicked");
        (lateness, drained)
    });
    let Drained {
        done,
        drains,
        unresolved,
        mut submitted_s,
        mut missed,
    } = drained;

    let sent = lateness_s.len();
    let mut latency_s = vec![f64::INFINITY; sent];
    let mut results = vec![None; if keep_results { sent } else { 0 }];
    let mut failed = 0;
    for (i, at_s, r) in done {
        match r {
            Ok(x) => {
                latency_s[i] = at_s - arrivals[i].due_s;
                if keep_results {
                    results[i] = Some(x);
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("serve request {i} failed: {e}");
            }
        }
    }
    submitted_s.truncate(sent);
    missed.truncate(sent);
    Phase {
        latency_s,
        lateness_s,
        submitted_s,
        missed,
        results,
        drains,
        failed,
        unresolved,
        aborted,
        wall_s: secs(Instant::now()),
    }
}

type Done = Vec<(usize, f64, Result<Vec<f64>, ServeError>)>;

/// What the drainer saw: completions (request, seconds after the phase
/// start, result), the drains, the tickets left unresolved, and per
/// request when `submit` returned and whether it missed.
struct Drained {
    done: Done,
    drains: Vec<Drain>,
    unresolved: usize,
    submitted_s: Vec<f64>,
    missed: Vec<bool>,
}

/// The drainer: drain whenever requests are queued, then deliver every
/// ticket whose result is ready.
fn drain_loop(
    service: &SolveService<f64>,
    rx: mpsc::Receiver<Sent>,
    count: usize,
    outstanding: &AtomicUsize,
    tracer: &Tracer,
    secs: impl Fn(Instant) -> f64,
) -> Drained {
    let mut pending: Vec<(usize, Ticket<f64>)> = Vec::new();
    let mut out = Drained {
        done: Vec::new(),
        drains: Vec::new(),
        unresolved: 0,
        submitted_s: vec![0.0; count],
        missed: vec![false; count],
    };
    let mut open = true;
    let mut idle_since: Option<Instant> = None;
    let accept = |msg: Sent, pending: &mut Vec<(usize, Ticket<f64>)>, out: &mut Drained| {
        out.submitted_s[msg.index] = msg.submitted_s;
        out.missed[msg.index] = msg.missed;
        match msg.ticket {
            Ok(t) => pending.push((msg.index, t)),
            Err(e) => {
                out.done.push((msg.index, secs(Instant::now()), Err(e)));
                outstanding.fetch_sub(1, Ordering::Relaxed);
            }
        }
    };
    loop {
        while let Ok(msg) = rx.try_recv() {
            accept(msg, &mut pending, &mut out);
        }
        if service.queued() > 0 {
            let d0 = Instant::now();
            let span = tracer.open("serve.drain", None, out.drains.len());
            let report = service.drain();
            tracer.close(
                span,
                &[
                    ("requests", report.requests as f64),
                    ("groups", report.groups as f64),
                    ("launches", report.launches as f64),
                ],
            );
            out.drains.push(Drain {
                start_s: secs(d0),
                end_s: secs(Instant::now()),
            });
        }
        let now_s = secs(Instant::now());
        pending.retain(|(i, t)| match t.try_take() {
            Some(r) => {
                out.done.push((*i, now_s, r));
                outstanding.fetch_sub(1, Ordering::Relaxed);
                false
            }
            None => true,
        });
        if !open && pending.is_empty() {
            return out;
        }
        if service.queued() == 0 {
            if open {
                match rx.recv_timeout(Duration::from_micros(500)) {
                    Ok(msg) => accept(msg, &mut pending, &mut out),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
                }
            } else {
                // Nothing queued, clients finished, tickets outstanding:
                // give them a bounded time to resolve.
                let since = *idle_since.get_or_insert_with(Instant::now);
                if since.elapsed() > RESOLVE_TIMEOUT {
                    out.unresolved = pending.len();
                    return out;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Whether a ladder rung holds: nothing aborted or unresolved, p99 within
/// the limit, and no growing backlog (a queue still growing at the end of
/// the rung pushes the median of its last fifth of requests past half the
/// limit); with the figures it was judged on.
fn rung_holds(p: &Phase) -> (bool, String) {
    let n = p.latency_s.len();
    if p.aborted || p.unresolved > 0 || n < RUNG_REQUESTS {
        return (
            false,
            format!("backlog grew: {n} sent, {} unresolved", p.unresolved),
        );
    }
    let Ok(p99) = nearest_rank(&p.latency_s, 99.0) else {
        return (false, "p99 refused".to_string());
    };
    let tail = median(&p.latency_s[n - n / 5..]);
    (
        p99.value <= LIMIT_S && tail <= LIMIT_S / 2.0,
        format!(
            "p99 {:.1} ms, median of the last fifth {:.1} ms",
            p99.value * 1e3,
            tail * 1e3
        ),
    )
}

fn rung_rate(k: f64) -> f64 {
    LADDER_BASE * LADDER_STEP.powf(k)
}

/// Offer rung `k`'s rate for one copy of `base` stretched to it, and show
/// whether the rung holds.
fn rung(
    service: &SolveService<f64>,
    base: &[Arrival],
    k: i32,
    pool: &[Vec<f64>],
    tally: &mut Tally,
    gates: &mut Gates,
) {
    let rate = rung_rate(f64::from(k));
    let arrivals: Vec<Arrival> = base
        .iter()
        .map(|a| Arrival {
            due_s: a.due_s / rate,
            ..*a
        })
        .collect();
    let backlog = (rate * LIMIT_S * 4.0) as usize;
    let p = phase(
        service,
        &arrivals,
        pool,
        false,
        &Tracer::new(false),
        backlog,
    );
    account(&p, tally, gates);
    let (holds, why) = rung_holds(&p);
    eprintln!(
        "perfbench: rung {k} ({rate:.1} rps) {}: {why}",
        if holds { "holds" } else { "fails" }
    );
}

/// The served requests of a traffic phase with kept results.
fn served_of(arrivals: &[Arrival], p: &Phase) -> Vec<Served> {
    p.results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            r.as_ref()
                .map(|x| (arrivals[i].tenant, arrivals[i].rhs, x.clone()))
        })
        .collect()
}

/// Every tenant's operator, built as the service builds it, with its
/// 1-norm estimate: the residual check's reference.
struct Reference {
    ops: Vec<Hodlr<f64>>,
    norms: Vec<f64>,
}

/// Largest scaled residual `|A x - b| / (|A|_1 |x|)` over `served`,
/// against each tenant's own HODLR operator.
fn max_relres(served: &[Served], r: &Reference, pool: &[Vec<f64>], gates: &mut Gates) -> f64 {
    let mut worst = 0.0f64;
    for (t, rhs, x) in served {
        gates.check(x.iter().all(|v| v.is_finite()), || {
            format!("a request to tenant {t} returned a non-finite solution")
        });
        let ax = r.ops[*t].matvec(x);
        worst = worst.max(scaled_residual(&ax, x, &pool[*rhs], r.norms[*t]));
    }
    worst
}

pub fn run(args: &Args, tracer: &Tracer, m: &mut Metrics, gates: &mut Gates, tally: &mut Tally) {
    let mut rng = StdRng::seed_from_u64(RHS_POOL_SEED);
    let pool: Vec<Vec<f64>> = (0..RHS_POOL)
        .map(|_| (0..TENANT_N).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let weights = zipf_weights();
    let off = Tracer::new(false);
    let run_start = Instant::now();
    // The residual check's reference and the factor loop's input.
    let ops: Vec<Hodlr<f64>> = (0..TENANTS)
        .filter_map(|t| tally.op("tenant build", tenant_build(t)))
        .collect();
    if ops.len() < TENANTS {
        return;
    }
    let norms = ops.iter().map(Hodlr::norm1_est).collect();
    let reference = Reference { ops, norms };

    // This set-up is a warm-up; `setup_s` is the median of the set-ups
    // made after every traffic window, so they spread over the run like
    // the other samples do.
    let service = setup(&pool, tally);
    let warm = schedule(args.seed ^ 1, RATE, WARMUP_REQUESTS, &weights);
    account(
        &phase(&service, &warm, &pool, false, &off, usize::MAX),
        tally,
        gates,
    );
    if args.trace {
        let window = schedule(args.seed ^ (2 << 8), RATE, LATENCY_REQUESTS, &weights);
        let base = schedule(args.seed ^ 1, 1.0, RUNG_REQUESTS, &weights);
        traced(&service, &window, &base, &pool, tracer, m, gates, tally);
        tenant_layers(args, run_start, tracer, m, gates, tally);
        return;
    }

    // Each round: a window of open-loop mixed traffic on the long-lived
    // service, then fresh services are set up (timed) and the last one's
    // request paths are timed in closed loop.  Every closed-loop figure is
    // the median over all the cycles of the run.
    let mut setups = Vec::new();
    let mut loops = Loops::default();
    let mut relres = 0.0f64;
    for round in 1usize.. {
        let arrivals = schedule(
            args.seed ^ ((round as u64 + 1) << 8),
            RATE,
            WINDOW_REQUESTS,
            &weights,
        );
        let p = phase(&service, &arrivals, &pool, true, &off, usize::MAX);
        account(&p, tally, gates);
        relres = relres.max(max_relres(
            &served_of(&arrivals, &p),
            &reference,
            &pool,
            gates,
        ));
        for _ in 1..SETUPS_PER_ROUND {
            drop(timed_setup(&pool, tally, &mut setups));
        }
        let fresh = timed_setup(&pool, tally, &mut setups);
        let mut served = Vec::new();
        closed_loops(
            &fresh,
            &reference.ops,
            &pool,
            tally,
            gates,
            &mut loops,
            &mut served,
        );
        relres = relres.max(max_relres(&served, &reference, &pool, gates));
        // Run another round when it would overshoot `--seconds` by less
        // than stopping now would fall short of it.
        let elapsed = run_start.elapsed().as_secs_f64();
        let per_round = elapsed / round as f64;
        if round >= MIN_ROUNDS && elapsed + per_round / 2.0 > args.seconds {
            eprintln!("perfbench: serve-mixed ran {round} rounds in {elapsed:.1} s");
            break;
        }
    }
    m.push("setup_s", median(&setups), "s", setups.len());
    let Loops {
        factor,
        solve,
        block,
        miss,
    } = &loops;
    m.push("factor_s.batched", median(factor), "s", factor.len());
    m.push("solve_s.batched", median(solve), "s", solve.len());
    m.push("block_rhs_per_s", 1.0 / median(block), "1/s", block.len());
    m.push("time_to_solution_s", median(miss), "s", miss.len());
    m.push("relres", relres, "ratio", 1);
    let peak = reference
        .ops
        .iter()
        .map(Hodlr::build_peak_bytes)
        .max()
        .unwrap_or(0);
    m.push("peak_bytes", peak as f64, "bytes", 1);
    // Scaled residuals of these tenants sit near 1e-16.
    gates.check(relres <= 1e-12, || {
        format!("serve relres {relres:e} above its ceiling 1e-12")
    });
    gates.check(m.0.iter().all(|x| x.value.is_finite()), || {
        "serve-mixed: a metric is not finite".to_string()
    });
}

/// Fold a phase into the tally and the accounting gate.
fn account(p: &Phase, tally: &mut Tally, gates: &mut Gates) {
    tally.attempted += p.latency_s.len() as u64;
    tally.failed += p.failed;
    gates.check(p.unresolved == 0, || {
        format!(
            "{} serve requests neither completed nor failed",
            p.unresolved
        )
    });
}

/// The traced run's service part: the latency window once untraced and
/// once traced; the `hodlr-serve` metrics come from the traced window,
/// and chunks of the two show the tracing overhead on the latency; then
/// one ladder trial for coalescing near the knee.
#[allow(clippy::too_many_arguments)]
fn traced(
    service: &SolveService<f64>,
    arrivals: &[Arrival],
    base: &[Arrival],
    pool: &[Vec<f64>],
    tracer: &Tracer,
    m: &mut Metrics,
    gates: &mut Gates,
    tally: &mut Tally,
) {
    let off = Tracer::new(false);
    let plain = phase(service, arrivals, pool, false, &off, usize::MAX);
    account(&plain, tally, gates);
    // Latency of the untraced window; too unsteady between runs on a
    // shared host for an end-to-end bound.
    for (name, p) in [
        ("serve.latency_ms.p50", 50.0),
        ("serve.latency_ms.p99", 99.0),
    ] {
        match nearest_rank(&plain.latency_s, p) {
            Ok(q) => m.push(name, q.value * 1e3, "ms", q.samples),
            Err(e) => gates.check(false, || e),
        }
    }
    let (c0, s0) = (service.cache_stats(), service.stats());
    let p = phase(service, arrivals, pool, false, tracer, usize::MAX);
    let (c1, s1) = (service.cache_stats(), service.stats());
    account(&p, tally, gates);

    let hits = c1.hits - c0.hits;
    let misses = c1.misses - c0.misses;
    let completed = (s1.completed - s0.completed).max(1);
    m.push(
        "serve.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        1,
    );
    m.push("serve.misses", misses as f64, "count", 1);
    m.push(
        "serve.evictions",
        (c1.evictions - c0.evictions) as f64,
        "count",
        1,
    );
    m.push(
        "serve.launches_per_request",
        (s1.launches - s0.launches) as f64 / completed as f64,
        "ratio",
        1,
    );
    m.push(
        "serve.group_size",
        completed as f64 / (s1.groups - s0.groups).max(1) as f64,
        "ratio",
        1,
    );
    // The drain that served a request is the first to start after its
    // submit returned.
    let served_by = |t: f64| p.drains.partition_point(|d| d.start_s < t);
    let waits: Vec<f64> = p
        .submitted_s
        .iter()
        .filter_map(|&t| p.drains.get(served_by(t)).map(|d| (d.start_s - t) * 1e3))
        .collect();
    let durations: Vec<f64> = p
        .drains
        .iter()
        .map(|d| (d.end_s - d.start_s) * 1e3)
        .collect();
    let mut miss_drains: Vec<usize> = p
        .submitted_s
        .iter()
        .zip(&p.missed)
        .filter(|(_, &miss)| miss)
        .map(|(&t, _)| served_by(t))
        .filter(|&k| k < p.drains.len())
        .collect();
    miss_drains.dedup();
    let miss_durations: Vec<f64> = miss_drains.iter().map(|&k| durations[k]).collect();
    let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    m.push(
        "serve.queue_wait_ms.p50",
        or_zero(&waits),
        "ms",
        waits.len(),
    );
    m.push(
        "serve.drain_ms.p50",
        or_zero(&durations),
        "ms",
        durations.len(),
    );
    m.push(
        "serve.miss_drain_ms.p50",
        or_zero(&miss_durations),
        "ms",
        miss_durations.len(),
    );
    m.push(
        "serve.drain_busy_frac",
        durations.iter().sum::<f64>() / 1e3 / p.wall_s,
        "ratio",
        1,
    );
    m.push(
        "serve.retried",
        (s1.retried - s0.retried) as f64,
        "count",
        1,
    );
    m.push(
        "serve.failed",
        (s1.failed - s0.failed) as f64 + p.failed as f64,
        "count",
        1,
    );
    match nearest_rank(&p.lateness_s, 99.0) {
        Ok(q) => m.push("serve.gen_lag_ms.p99", q.value * 1e3, "ms", q.samples),
        Err(e) => gates.check(false, || e),
    }
    // Both windows replay the same requests; each chunk of them is one
    // untraced/traced pair of p50 latencies.
    let chunk = arrivals.len() / OVERHEAD_CHUNKS;
    let pairs: Vec<(f64, f64)> = plain
        .latency_s
        .chunks_exact(chunk)
        .zip(p.latency_s.chunks_exact(chunk))
        .map(|(a, b)| (median(a), median(b)))
        .collect();
    // The `trace.*` metrics come from the tenant's passes, where many
    // pairs fit in the run; this one is shown here.
    eprintln!(
        "perfbench: serve-mixed: {} on the p50 latency of chunks of {chunk} requests",
        Overhead::of(&pairs).describe()
    );

    // Coalescing near the knee: requests per drained group over one
    // untraced ladder trial at rung `START_RUNG`.
    let s2 = service.stats();
    rung(service, base, START_RUNG, pool, tally, gates);
    let s3 = service.stats();
    m.push(
        "serve.group_size.ladder",
        (s3.completed - s2.completed) as f64 / (s3.groups - s2.groups).max(1) as f64,
        "ratio",
        1,
    );
}

/// The traced run's tenant part: the layers under the service (the
/// `hodlr-la` probes, `hodlr-batch`, `hodlr-core`, the entry source, the
/// compressor and the tree), measured on the most popular tenant on its
/// one-thread pool the way the solver workloads measure theirs, with the
/// tracing overhead over its untraced/traced passes, for the rest of
/// `--seconds`.
fn tenant_layers(
    args: &Args,
    run_start: Instant,
    tracer: &Tracer,
    m: &mut Metrics,
    gates: &mut Gates,
    tally: &mut Tally,
) {
    let served = tally.op("tenant build", tenant_build(0));
    let measured = tally.op(
        "tenant build",
        HotTenant.build(TENANT_N, Backend::Batched, 1, Wrap::Off),
    );
    if let (Some(a), Some(b)) = (served, measured) {
        let same = match (a.matrix(), b.hodlr.matrix()) {
            (Some(x), Some(y)) => solver::same_matrix(x, y),
            _ => false,
        };
        gates.check(same, || {
            "the measured tenant differs from the served tenant 0".to_string()
        });
    }
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xb0b);
    let inputs = Inputs::new(&mut rng, TENANT_N);
    let seconds = (args.seconds - run_start.elapsed().as_secs_f64()).max(1.0);
    solver::traced(&HotTenant, &inputs, 1, seconds, tracer, m, gates, tally);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_times_from_due_and_reports_lateness() {
        let arrivals: Vec<Arrival> = (0..4)
            .map(|i| Arrival {
                due_s: 0.005 * i as f64,
                tenant: 0,
                rhs: 0,
            })
            .collect();
        let start = Instant::now();
        let mut sent_at = Vec::new();
        // The first send stalls for 40 ms: every later request is sent
        // late, and the lateness says by how much.
        let lateness = drive(&arrivals, start, |i| {
            sent_at.push(Instant::now());
            if i == 0 {
                std::thread::sleep(Duration::from_millis(40));
            }
            true
        });
        assert_eq!(lateness.len(), 4);
        assert!(lateness[0] < 0.02);
        for (i, late) in lateness.iter().enumerate().skip(1) {
            assert!(
                *late >= 0.04 - arrivals[i].due_s - 1e-3,
                "request {i}: {late}"
            );
            // Latency counted from the due time includes the stall.
            let due = start + Duration::from_secs_f64(arrivals[i].due_s);
            assert!(sent_at[i].duration_since(due).as_secs_f64() >= *late - 1e-3);
        }
    }

    #[test]
    fn generator_stops_when_asked() {
        let arrivals = schedule(7, 1000.0, 50, &[1.0, 1.0]);
        let lateness = drive(&arrivals, Instant::now(), |i| i < 9);
        assert_eq!(lateness.len(), 10);
    }

    #[test]
    fn schedule_is_seeded_poisson_over_skewed_tenants() {
        let w = zipf_weights();
        let a = schedule(11, 200.0, 4000, &w);
        let b = schedule(11, 200.0, 4000, &w);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due_s == y.due_s && x.tenant == y.tenant));
        let mean_gap = a.last().unwrap().due_s / a.len() as f64;
        assert!((mean_gap - 1.0 / 200.0).abs() < 0.0005, "{mean_gap}");
        let hot = a.iter().filter(|r| r.tenant < CACHE_ENTRIES).count();
        assert!(hot > a.len() / 2 && hot < a.len());
    }
}
