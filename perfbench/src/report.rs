//! Named metrics, correctness gates, and the result line.

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from (1 for a count or a model).
    pub samples: usize,
}

/// The metrics of one run, in the order they were measured.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Correctness gates: every failed check is kept with its reason.
#[derive(Default)]
pub struct Gates(pub Vec<String>);

impl Gates {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.0.is_empty()
    }
}

/// Operation tally: every call into the program the run attempted, and
/// the ones that returned an error.
#[derive(Copy, Clone, Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; hand back its value or `None` on failure.
    pub fn op<R, E: std::fmt::Display>(&mut self, what: &str, r: Result<R, E>) -> Option<R> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("operation failed: {what}: {e}");
                None
            }
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Print every metric as a table row, then the one-line JSON result.
pub fn print(metrics: &Metrics, gates: &Gates, tally: Tally) {
    for m in &metrics.0 {
        println!(
            "{:<40} {:>22} {:<8} samples={}",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples
        );
    }
    for g in &gates.0 {
        println!("GATE FAILED: {g}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gates.passed() && tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Every per-layer metric of the traced run, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("la.gemm_gflops.f64", "GFLOP/s"),
    ("la.gemm_gflops.f64.flop_per_byte", "flop/B"),
    ("la.gemm_gflops.c64", "GFLOP/s"),
    ("la.gemm_gflops.c64.flop_per_byte", "flop/B"),
    ("la.getrf_gflops.f64", "GFLOP/s"),
    ("la.getrf_gflops.f64.flop_per_byte", "flop/B"),
    ("la.getrf_gflops.c64", "GFLOP/s"),
    ("la.getrf_gflops.c64.flop_per_byte", "flop/B"),
    ("la.potrf_gflops.f64", "GFLOP/s"),
    ("la.potrf_gflops.f64.flop_per_byte", "flop/B"),
    ("batch.factor.launches", "count"),
    ("batch.factor.entries_per_launch", "ratio"),
    ("batch.factor.flops", "flop"),
    ("batch.factor.gflops", "GFLOP/s"),
    ("batch.solve.launches", "count"),
    ("batch.solve.flops", "flop"),
    ("batch.h2d_bytes", "bytes"),
    ("batch.d2h_bytes", "bytes"),
    ("batch.peak_device_bytes", "bytes"),
    ("core.max_rank", "count"),
    ("core.rank_sum", "count"),
    ("core.levels", "count"),
    ("core.storage_bytes", "bytes"),
    ("core.factor.model_flops", "flop"),
    ("core.solve.model_flops", "flop"),
    ("core.factor.metered_over_model", "ratio"),
    ("source.entries", "count"),
    ("source.self_s_est", "s"),
    ("source.ns_per_entry", "ns"),
    ("compress.self_s_est", "s"),
    ("compress.entries_per_stored", "ratio"),
    ("tree.partition_s", "s"),
    ("serve.latency_ms.p50", "ms"),
    ("serve.latency_ms.p99", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.misses", "count"),
    ("serve.evictions", "count"),
    ("serve.launches_per_request", "ratio"),
    ("serve.group_size", "ratio"),
    ("serve.group_size.ladder", "ratio"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.drain_ms.p50", "ms"),
    ("serve.miss_drain_ms.p50", "ms"),
    ("serve.drain_busy_frac", "ratio"),
    ("serve.retried", "count"),
    ("serve.failed", "count"),
    ("serve.gen_lag_ms.p99", "ms"),
    ("trace.tts_untraced_s", "s"),
    ("trace.tts_traced_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.overhead_spread", "ratio"),
];
