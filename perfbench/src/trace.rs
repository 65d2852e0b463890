//! In-memory spans and a counting entry-source wrapper, recorded from the
//! benchmark's own code around calls into each crate's public API.
//!
//! A disabled [`Tracer`] records nothing; the end-to-end metrics come from
//! runs with tracing off.

use hodlr_compress::MatrixEntrySource;
use hodlr_la::{MatMut, Scalar};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of an open span.
pub type SpanId = usize;

const NO_SPAN: SpanId = usize::MAX;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    rep: usize,
    counters: Vec<(&'static str, f64)>,
}

/// Records spans (name, start, end, parent, repetition) and the counters
/// observed at their boundaries.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, rep: usize) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.filter(|&p| p != NO_SPAN),
            rep,
            counters: Vec::new(),
        });
        spans.len() - 1
    }

    /// Close a span, attaching the counters observed at its end.
    pub fn close(&self, id: SpanId, counters: &[(&'static str, f64)]) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        spans[id].end_ns = end_ns;
        spans[id].counters.extend_from_slice(counters);
    }

    /// Total self time per span name, in seconds: each span's duration
    /// minus the part of it that its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.lock();
        let mut totals = BTreeMap::new();
        for (id, span) in spans.iter().enumerate() {
            *totals.entry(span.name).or_insert(0.0) += self_ns(&spans, id) as f64 * 1e-9;
        }
        totals
    }

    /// Write every span, with its self time, as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let sep = if id + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"rep\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"counters\": {{{}}}}}{sep}",
                s.name,
                s.rep,
                s.start_ns,
                s.end_ns,
                self_ns(&spans, id),
                counters.join(", ")
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Duration of span `id` minus the union of its children's intervals.
fn self_ns(spans: &[Span], id: SpanId) -> u64 {
    let span = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

/// Counter slots of a [`CountingSource`], one per counting thread.
const SHARDS: usize = 64;

/// One cache line per counter, so threads do not contend on a shared line.
#[repr(align(64))]
#[derive(Default)]
struct Shard(AtomicU64);

thread_local! {
    static SLOT: Cell<Option<Option<usize>>> = const { Cell::new(None) };
}

/// This thread's own counter slot, or `None` once every slot is taken.
/// Slots are handed out once per thread for the life of the process.
fn thread_slot() -> Option<usize> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    SLOT.with(|s| match s.get() {
        Some(slot) => slot,
        None => {
            let i = NEXT.fetch_add(1, Ordering::Relaxed);
            let slot = (i < SHARDS).then_some(i);
            s.set(Some(slot));
            slot
        }
    })
}

/// A [`MatrixEntrySource`] that forwards all four access methods (`entry`,
/// `row`, `col`, `tile`) to `inner` and counts the entries evaluated.
///
/// The builder evaluates entries one `entry` call at a time, and reading
/// the clock twice per call would cost more than most entries do, so the
/// build path only counts.  [`CountingSource::ns_per_entry`] times entry
/// evaluation through a second wrapper of the same kind in one long
/// interval, so the figure includes the forwarding and counting.
pub struct CountingSource<'a, T, S: ?Sized> {
    inner: &'a S,
    shards: [Shard; SHARDS],
    /// Counts of threads that found every slot taken.
    overflow: AtomicU64,
    _scalar: PhantomData<fn() -> T>,
}

impl<'a, T: Scalar, S: MatrixEntrySource<T> + ?Sized> CountingSource<'a, T, S> {
    pub fn new(inner: &'a S) -> Self {
        CountingSource {
            inner,
            shards: std::array::from_fn(|_| Shard::default()),
            overflow: AtomicU64::new(0),
            _scalar: PhantomData,
        }
    }

    /// Entries evaluated so far.
    pub fn entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum::<u64>()
            + self.overflow.load(Ordering::Relaxed)
    }

    /// Only the owning thread writes its slot, so the add needs no locked
    /// read-modify-write, which would cost more than a cheap entry.
    fn count(&self, entries: usize) {
        match thread_slot() {
            Some(i) => {
                let c = &self.shards[i].0;
                c.store(
                    c.load(Ordering::Relaxed) + entries as u64,
                    Ordering::Relaxed,
                );
            }
            None => {
                self.overflow.fetch_add(entries as u64, Ordering::Relaxed);
            }
        }
    }

    /// Nanoseconds per entry of `samples` evaluations through `entry`, in
    /// runs of 256 along rows spread over the matrix (the access pattern
    /// of cross approximation).  The probe's entries are not counted here.
    pub fn ns_per_entry(&self, samples: usize) -> f64 {
        const RUN: usize = 256;
        let probe = CountingSource::new(self.inner);
        let (m, n) = (self.inner.nrows(), self.inner.ncols());
        let runs = samples.div_ceil(RUN);
        let start = Instant::now();
        for r in 0..runs {
            let i = (r * 7919) % m;
            let j0 = (r * 104_729) % n.saturating_sub(RUN).max(1);
            for j in j0..(j0 + RUN).min(n) {
                std::hint::black_box(probe.entry(i, j));
            }
        }
        start.elapsed().as_nanos() as f64 / (runs * RUN.min(n)) as f64
    }
}

impl<T: Scalar, S: MatrixEntrySource<T> + ?Sized> MatrixEntrySource<T>
    for CountingSource<'_, T, S>
{
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn entry(&self, i: usize, j: usize) -> T {
        self.count(1);
        self.inner.entry(i, j)
    }

    fn row(&self, i: usize, out: &mut [T]) {
        self.count(out.len());
        self.inner.row(i, out)
    }

    fn col(&self, j: usize, out: &mut [T]) {
        self.count(out.len());
        self.inner.col(j, out)
    }

    fn tile(&self, row0: usize, col0: usize, out: &mut MatMut<'_, T>) {
        self.count(out.rows() * out.cols());
        self.inner.tile(row0, col0, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hodlr::{Backend, Factorize, Hodlr, Solve};
    use hodlr_bie::{LaplaceExteriorBie, StarContour};
    use hodlr_compress::CompressionMethod;

    fn build<S: MatrixEntrySource<f64>>(source: &S) -> Hodlr<f64> {
        Hodlr::builder()
            .source(source)
            .leaf_size(64)
            .tolerance(1e-12)
            .method(CompressionMethod::AcaRook)
            .backend(Backend::Serial)
            .threads(2)
            .build()
            .unwrap()
    }

    #[test]
    fn wrapped_build_is_bitwise_identical() {
        let bie = LaplaceExteriorBie::new(StarContour::paper_contour(), 1024);
        let counted = CountingSource::new(&bie);
        let plain = build(&bie);
        let wrapped = build(&counted);
        assert!(counted.entries() > 0 && counted.ns_per_entry(4096) > 0.0);

        let (a, b) = (plain.matrix().unwrap(), wrapped.matrix().unwrap());
        assert_eq!(a.ubig().data(), b.ubig().data());
        assert_eq!(a.vbig().data(), b.vbig().data());
        for (x, y) in a.diag_blocks().iter().zip(b.diag_blocks()) {
            assert_eq!(x.data(), y.data());
        }
        let rhs: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.1).sin()).collect();
        let xa = plain.factorize().unwrap().solve(&rhs).unwrap();
        let xb = wrapped.factorize().unwrap().solve(&rhs).unwrap();
        assert_eq!(xa, xb);
    }

    #[test]
    fn counts_add_up_across_more_threads_than_slots() {
        let bie = LaplaceExteriorBie::new(StarContour::paper_contour(), 64);
        let counted = CountingSource::new(&bie);
        let mut row = vec![0.0; 64];
        counted.row(0, &mut row);
        std::thread::scope(|s| {
            for _ in 0..SHARDS + 8 {
                s.spawn(|| {
                    for j in 0..10 {
                        counted.entry(1, j);
                    }
                });
            }
        });
        assert_eq!(counted.entries(), 64 + 10 * (SHARDS as u64 + 8));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tracer = Tracer::new(true);
        let root = tracer.open("root", None, 0);
        let a = tracer.open("child", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(20));
        tracer.close(a, &[]);
        tracer.close(root, &[("k", 1.0)]);
        let totals = tracer.self_seconds();
        assert!(totals["child"] >= 0.02);
        assert!(totals["root"] < totals["child"]);
        // Overlapping children are not subtracted twice.
        let spans = vec![
            span_at(0, 100, None),
            span_at(10, 60, Some(0)),
            span_at(40, 90, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 20);
    }

    fn span_at(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            rep: 0,
            counters: Vec::new(),
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let id = tracer.open("x", None, 0);
        tracer.close(id, &[]);
        assert!(tracer.self_seconds().is_empty());
    }
}
