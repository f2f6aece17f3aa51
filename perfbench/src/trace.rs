//! In-memory span trace for the traced run, plus the counting allocator
//! that attributes allocations to spans.
//!
//! A span has a name, a start and an end (nanoseconds since the trace
//! began), the span that was open when it started, and the workload it
//! belongs to. Spans stay in memory and are written out once, when the
//! run ends. A disabled trace records nothing, so the untraced run pays
//! one branch per span boundary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Counts allocations while [`Trace`] has switched counting on. The
/// counters are statistics that publish no other data, hence `Relaxed`.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The benchmark's one wall-clock read: it measures real time by design.
pub fn now() -> Instant {
    // ua-lint: allow(wall-clock) -- a benchmark measures real time by design
    Instant::now()
}

fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One recorded span. Times are nanoseconds since the trace began;
/// allocation counts are inclusive of child spans.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle for an open span; pass it back to [`Trace::close`].
#[must_use]
pub struct Open(Option<usize>);

/// A point on the trace clock with the allocation counters at that
/// instant, for spans whose start is only known after the fact.
#[derive(Clone, Copy)]
pub struct Mark {
    ns: u64,
    allocs: u64,
    bytes: u64,
}

pub struct Trace {
    workload: &'static str,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// A trace that records nothing (the untraced run).
    pub fn off(workload: &'static str) -> Self {
        Trace {
            workload,
            enabled: false,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording trace; allocation counting is on until it drops.
    pub fn on(workload: &'static str) -> Self {
        let trace = Trace {
            workload,
            enabled: true,
            origin: now(),
            // Reserved up front so that growing the span list does not
            // show up in the allocation counts of the spans being traced.
            spans: Vec::with_capacity(1 << 17),
            open: Vec::new(),
        };
        COUNTING.store(true, Ordering::Relaxed);
        trace
    }

    pub fn mark(&self) -> Mark {
        let (allocs, bytes) = alloc_counters();
        Mark {
            ns: self.origin.elapsed().as_nanos() as u64,
            allocs,
            bytes,
        }
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let (allocs, bytes) = alloc_counters();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            // Start counters for now; `close` turns them into deltas.
            allocs,
            alloc_bytes: bytes,
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, handle: Open) {
        let Some(id) = handle.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        let end = self.mark();
        let span = &mut self.spans[id];
        span.end_ns = end.ns;
        span.allocs = end.allocs - span.allocs;
        span.alloc_bytes = end.bytes - span.alloc_bytes;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let handle = self.open(name);
        let value = f(self);
        self.close(handle);
        value
    }

    /// Records a finished span that began at `start` and ends now, as a
    /// child of the innermost open span.
    pub fn record_since(&mut self, name: &'static str, start: Mark) {
        if !self.enabled {
            return;
        }
        let end = self.mark();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: start.ns,
            end_ns: end.ns,
            allocs: end.allocs - start.allocs,
            alloc_bytes: end.bytes - start.bytes,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over every span of the trace.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        by_name(&self.spans)
    }

    /// The trace as JSON: one object per span with its self time.
    pub fn to_json(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\":\"{}\",\"spans\":[", self.workload);
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"workload\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                span.name,
                self.workload,
                span.start_ns,
                span.end_ns,
                self_ns[i],
                span.allocs,
                span.alloc_bytes
            );
        }
        out.push_str("]}\n");
        out
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        if self.enabled {
            COUNTING.store(false, Ordering::Relaxed);
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of `sorted`, which must be
/// ascending and non-empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Totals for all spans sharing one name. `allocs` and `alloc_bytes`
/// are self counts: allocations made inside a child span are the
/// child's, so the counts of all names add up to the traced total.
#[derive(Debug, Default)]
pub struct NameStats {
    pub count: u64,
    pub busy_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Every span's duration, ascending.
    pub durations_ns: Vec<u64>,
}

impl NameStats {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    pub fn percentile_us(&self, q: f64) -> f64 {
        percentile(&self.durations_ns, q) as f64 / 1e3
    }
}

fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut child_allocs = vec![(0u64, 0u64); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_allocs[p].0 += span.allocs;
            child_allocs[p].1 += span.alloc_bytes;
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (span, (kid_allocs, kid_bytes)) in spans.iter().zip(child_allocs) {
        let stats = out.entry(span.name).or_default();
        stats.count += 1;
        stats.busy_ns += span.duration_ns();
        stats.allocs += span.allocs.saturating_sub(kid_allocs);
        stats.alloc_bytes += span.alloc_bytes.saturating_sub(kid_bytes);
        stats.durations_ns.push(span.duration_ns());
    }
    for stats in out.values_mut() {
        stats.durations_ns.sort_unstable();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a`: the shared 20..30 is covered once.
            span("b", Some(0), 20, 50),
            // Sticks out past the parent's end: only 90..100 counts.
            span("c", Some(0), 90, 120),
            span("leaf", Some(1), 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 18, 30, 30, 2]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&sorted, 0.5), 100);
        assert_eq!(percentile(&sorted, 0.99), 198);
        assert_eq!(percentile(&sorted, 1.0), 200);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
    }

    #[test]
    fn self_allocs_exclude_children() {
        let mut spans = vec![span("root", None, 0, 10), span("kid", Some(0), 2, 4)];
        spans[0].allocs = 5;
        spans[1].allocs = 3;
        let stats = by_name(&spans);
        assert_eq!(stats["root"].allocs, 2);
        assert_eq!(stats["kid"].allocs, 3);
        assert_eq!(stats["root"].busy_ns, 10);
    }
}
