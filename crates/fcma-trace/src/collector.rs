//! The runtime collector: a sink for spans, instant events, counters,
//! and histograms that is **installed on a thread and travels with the
//! work** forked from it.
//!
//! Scoping contract (DESIGN.md §11): [`Collector::install_scoped`]
//! makes the collector current on the *calling thread* until its guard
//! drops; threads created through the two `fcma-sync` fork points (pool
//! regions and `thread::spawn`) inherit the forking thread's collector;
//! a thread created any other way has none and its probes are no-ops.
//! There is no process-wide registry, so concurrent runs in one process
//! never see each other's records.
//!
//! Design constraints, in order:
//!
//! 1. **Near-no-op when disabled.** Every entry point first reads one
//!    thread-local; the instrumentation macros additionally gate
//!    attribute construction behind [`is_enabled`], so an uninstrumented
//!    run pays one thread-local read per call site and allocates
//!    nothing.
//! 2. **No cross-thread contention on the hot path.** Span records are
//!    buffered per thread ([`ThreadBuf`]) and merged only at
//!    [`Collector::drain`]. The per-thread buffer is behind a `Mutex`,
//!    but it is only ever contended by the drain itself.
//! 3. **Deterministic structure.** Spans carry an id, their parent's id
//!    (the innermost open span on the same thread), and a start
//!    timestamp relative to the collector's epoch, so exporters can
//!    reconstruct the hierarchy without global ordering guarantees.

use crate::ctx::TraceCtx;
use crate::report::{AttrValue, Histogram, SpanRecord, TraceReport};
use fcma_sync::thread::{set_ctx_hooks, CtxHandle, CtxHooks};
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Process-wide span id allocator (0 is reserved for "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Process-wide trace-thread-id allocator.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Labeled-counter storage: (name, label key) → label value → count.
type LabeledMap = HashMap<(&'static str, &'static str), std::collections::BTreeMap<u64, u64>>;

/// Shared state of one collector.
struct Inner {
    /// Time base for every timestamp recorded under this collector.
    epoch: Instant,
    /// Every thread buffer ever registered under this collector.
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    /// Monotonic named counters.
    counters: Mutex<HashMap<&'static str, u64>>,
    /// Labeled counters, keyed by (name, label key): label value → count.
    labeled: Mutex<LabeledMap>,
    /// Named value distributions.
    histograms: Mutex<HashMap<&'static str, Histogram>>,
}

/// Stamp the thread's causal context (if a [`crate::TraceCtx`] guard is
/// live) onto a record's attributes, linking it to its dispatch.
fn stamp_ctx(attrs: &mut Vec<(&'static str, AttrValue)>) {
    if let Some(ctx) = TraceCtx::current() {
        attrs.push(("ctx_task", AttrValue::U64(ctx.task)));
        attrs.push(("ctx_attempt", AttrValue::U64(u64::from(ctx.attempt))));
        attrs.push(("ctx_origin", AttrValue::Str(ctx.origin.as_str().to_owned())));
    }
}

/// One thread's span buffer. Records are pushed on span *completion*
/// (and immediately for instant events), so a drain never observes a
/// half-written record.
struct ThreadBuf {
    tid: u64,
    epoch: Instant,
    events: Mutex<Vec<SpanRecord>>,
}

/// The collector current on a thread, with that thread's buffer under
/// it.
struct Current {
    inner: Arc<Inner>,
    buf: Arc<ThreadBuf>,
}

impl Current {
    /// Register a buffer for the calling thread under `inner`.
    fn register(inner: Arc<Inner>) -> Current {
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            epoch: inner.epoch,
            events: Mutex::new(Vec::new()),
        });
        lock(&inner.threads).push(Arc::clone(&buf));
        Current { inner, buf }
    }
}

/// A thread's collector state: its collector (installed or inherited)
/// and the open-span stack under it.
#[derive(Default)]
struct Tls {
    current: Option<Current>,
    stack: Vec<u64>,
}

thread_local! {
    static TLS: RefCell<Tls> = const { RefCell::new(Tls { current: None, stack: Vec::new() }) };
}

/// Whether a collector is current on the calling thread. The
/// instrumentation macros check this before evaluating any attribute
/// expressions.
#[inline]
pub fn is_enabled() -> bool {
    // `try_with`: a probe reached from another thread-local's destructor
    // during thread teardown is simply disabled.
    TLS.try_with(|cell| cell.borrow().current.is_some()).unwrap_or(false)
}

/// Run `f` with the calling thread's collector, buffer, and open-span
/// stack. Returns `None` if no collector is current on this thread.
fn with_tls<R>(f: impl FnOnce(&Inner, &Arc<ThreadBuf>, &mut Vec<u64>) -> R) -> Option<R> {
    TLS.try_with(|cell| {
        let tls = &mut *cell.borrow_mut();
        let current = tls.current.as_ref()?;
        Some(f(&current.inner, &current.buf, &mut tls.stack))
    })
    .ok()
    .flatten()
}

/// What a thread forked through the `fcma-sync` facade inherits from
/// its parent: the parent's collector and causal task context.
struct Inherited {
    collector: Option<Arc<Inner>>,
    ctx: Option<TraceCtx>,
}

/// `capture` half of the fork hooks: snapshot this thread's trace state.
fn hook_capture() -> Option<CtxHandle> {
    let collector = TLS
        .try_with(|cell| cell.borrow().current.as_ref().map(|c| Arc::clone(&c.inner)))
        .ok()
        .flatten();
    let ctx = TraceCtx::current();
    if collector.is_none() && ctx.is_none() {
        return None;
    }
    Some(Arc::new(Inherited { collector, ctx }))
}

/// `adopt` half of the fork hooks: make the parent's trace state current
/// on a freshly forked thread.
fn hook_adopt(handle: &CtxHandle) {
    let Some(inherited) = handle.downcast_ref::<Inherited>() else {
        return;
    };
    crate::ctx::set_current(inherited.ctx);
    if let Some(inner) = &inherited.collector {
        let current = Current::register(Arc::clone(inner));
        TLS.with(|cell| cell.borrow_mut().current = Some(current));
    }
}

/// Register the fork hooks with the facade (idempotent: the facade keeps
/// the first registration). Called by everything that makes trace state
/// current on a thread, so state that exists is always inherited.
pub(crate) fn register_fork_hooks() {
    set_ctx_hooks(CtxHooks { capture: hook_capture, adopt: hook_adopt });
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// An open span; completing (dropping) it records the span. Produced by
/// [`crate::span!`] / [`start_span`].
#[must_use = "a span records its duration when dropped; binding it to `_` drops it immediately"]
// audit: allow(deadpub) — reached via $crate:: paths from #[macro_export] macros; demotion breaks cross-crate expansion
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    attrs: Vec<(&'static str, AttrValue)>,
    buf: Arc<ThreadBuf>,
    started: Instant,
}

impl SpanGuard {
    /// The guard produced when no collector is installed: does nothing.
    // audit: allow(deadpub) — reached via $crate:: paths from #[macro_export] macros; demotion breaks cross-crate expansion
    pub fn disabled() -> Self {
        SpanGuard(None)
    }

    /// This span's id, for correlating external records (`None` when
    /// disabled).
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|s| s.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.0.take() else {
            return;
        };
        let dur = span.started.elapsed();
        // Pop this span from the open-span stack of the *current* thread.
        // Guards are normally dropped on their opening thread in LIFO
        // order; a guard moved across threads simply won't find itself
        // and leaves the foreign stack untouched.
        let _ = TLS.try_with(|cell| {
            let mut tls = cell.borrow_mut();
            if let Some(pos) = tls.stack.iter().rposition(|&id| id == span.id) {
                tls.stack.remove(pos);
            }
        });
        let record = SpanRecord {
            name: span.name.to_owned(),
            tid: span.buf.tid,
            id: span.id,
            parent: span.parent,
            start_ns: ns_since(span.buf.epoch, span.started),
            dur_ns: Some(u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX)),
            attrs: span.attrs.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect(),
        };
        lock(&span.buf.events).push(record);
    }
}

/// Open a span. Prefer the [`crate::span!`] macro, which skips attribute
/// construction entirely when no collector is installed.
// audit: allow(deadpub) — reached via $crate:: paths from #[macro_export] macros; demotion breaks cross-crate expansion
pub fn start_span(name: &'static str, mut attrs: Vec<(&'static str, AttrValue)>) -> SpanGuard {
    stamp_ctx(&mut attrs);
    let active = with_tls(|_, buf, stack| {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = stack.last().copied();
        stack.push(id);
        ActiveSpan { name, id, parent, attrs, buf: Arc::clone(buf), started: Instant::now() }
    });
    SpanGuard(active)
}

/// Record an instant event (zero duration, `ph:"i"` in Chrome traces).
/// Prefer the [`crate::event!`] macro.
// audit: allow(deadpub) — reached via $crate:: paths from #[macro_export] macros; demotion breaks cross-crate expansion
pub fn instant(name: &'static str, mut attrs: Vec<(&'static str, AttrValue)>) {
    stamp_ctx(&mut attrs);
    with_tls(|_, buf, stack| {
        let record = SpanRecord {
            name: name.to_owned(),
            tid: buf.tid,
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            parent: stack.last().copied(),
            start_ns: ns_since(buf.epoch, Instant::now()),
            dur_ns: None,
            attrs: attrs.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect(),
        };
        lock(&buf.events).push(record);
    });
}

/// Record a span that ends now and lasted `elapsed`, for callers that
/// measure time on a clock other than `std` (the cluster master tracks
/// dispatch flights on the `fcma-sync` facade clock, which may be
/// virtual; only the duration is meaningful there, so the span is
/// anchored to end at the record call).
pub fn record_span_elapsed(
    name: &'static str,
    mut attrs: Vec<(&'static str, AttrValue)>,
    elapsed: Duration,
) {
    stamp_ctx(&mut attrs);
    with_tls(|_, buf, stack| {
        let end_ns = ns_since(buf.epoch, Instant::now());
        let dur_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let record = SpanRecord {
            name: name.to_owned(),
            tid: buf.tid,
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            parent: stack.last().copied(),
            start_ns: end_ns.saturating_sub(dur_ns),
            dur_ns: Some(dur_ns),
            attrs: attrs.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect(),
        };
        lock(&buf.events).push(record);
    });
}

/// Trait bound for [`add_counter`] deltas, so call sites can pass the
/// `usize` quantities the pipeline naturally produces without lossy
/// casts in kernel crates.
// audit: allow(deadpub) — part of a referenced public signature; demotion trips private_interfaces
pub trait IntoCount {
    /// Convert to the counter delta.
    fn into_count(self) -> u64;
}
impl IntoCount for u64 {
    fn into_count(self) -> u64 {
        self
    }
}
impl IntoCount for u32 {
    fn into_count(self) -> u64 {
        u64::from(self)
    }
}
impl IntoCount for usize {
    fn into_count(self) -> u64 {
        u64::try_from(self).unwrap_or(u64::MAX)
    }
}

/// Add `delta` to the named monotonic counter. Prefer the
/// [`crate::counter!`] macro.
pub fn add_counter(name: &'static str, delta: impl IntoCount) {
    let delta = delta.into_count();
    with_tls(|inner, _, _| {
        let mut counters = lock(&inner.counters);
        let slot = counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    });
}

/// Add `delta` to one series of a labeled counter — `label` is the
/// label key (e.g. `worker`), `key` its value for this series. Prefer
/// the [`crate::labeled_counter!`] macro.
// audit: allow(deadpub) — reached via $crate:: paths from #[macro_export] macros; demotion breaks cross-crate expansion
pub fn add_labeled_counter(
    name: &'static str,
    label: &'static str,
    key: impl IntoCount,
    delta: impl IntoCount,
) {
    let (key, delta) = (key.into_count(), delta.into_count());
    with_tls(|inner, _, _| {
        let mut labeled = lock(&inner.labeled);
        let slot = labeled.entry((name, label)).or_default().entry(key).or_insert(0);
        *slot = slot.saturating_add(delta);
    });
}

/// Record `value` into the named histogram. Prefer the
/// [`crate::histogram!`] macro.
// audit: allow(deadpub) — reached via $crate:: paths from #[macro_export] macros; demotion breaks cross-crate expansion
pub fn record_value(name: &'static str, value: f64) {
    with_tls(|inner, _, _| {
        lock(&inner.histograms).entry(name).or_default().record(value);
    });
}

/// A trace collector. Install it ([`Collector::install_scoped`]) to
/// start recording on the calling thread and everything forked from it;
/// [`Collector::drain`] merges everything recorded so far into a
/// [`TraceReport`]. Installing the same collector again later keeps
/// accumulating into the same report.
pub struct Collector {
    inner: Arc<Inner>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A fresh collector; its epoch (timestamp zero) is now.
    pub fn new() -> Self {
        Collector {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                threads: Mutex::new(Vec::new()),
                counters: Mutex::new(HashMap::new()),
                labeled: Mutex::new(HashMap::new()),
                histograms: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Make this collector current on the calling thread and return a
    /// guard that restores whatever was current before (another
    /// collector, or none) when it drops. Threads forked through the
    /// `fcma-sync` facade while the guard is live inherit the collector;
    /// no other thread is affected.
    pub fn install_scoped(&self) -> ScopedCollector<'_> {
        register_fork_hooks();
        let installed =
            Tls { current: Some(Current::register(Arc::clone(&self.inner))), stack: Vec::new() };
        let prev = TLS.with(|cell| cell.replace(installed));
        ScopedCollector { collector: self, prev, _on_installing_thread: PhantomData }
    }

    /// Merge and clear everything recorded so far. Spans are sorted by
    /// start time (ties by id), giving a deterministic drain order.
    ///
    /// Call this after the instrumented work has finished; a span still
    /// open at drain time is simply absent from the report (it records
    /// on completion).
    pub fn drain(&self) -> TraceReport {
        let mut spans = Vec::new();
        for buf in lock(&self.inner.threads).iter() {
            spans.append(&mut lock(&buf.events));
        }
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let counters = lock(&self.inner.counters).drain().map(|(k, v)| (k.to_owned(), v)).collect();
        let labeled_counters = lock(&self.inner.labeled)
            .drain()
            .map(|((name, label), values)| {
                (name.to_owned(), crate::LabeledCounter { label: label.to_owned(), values })
            })
            .collect();
        let histograms =
            lock(&self.inner.histograms).drain().map(|(k, v)| (k.to_owned(), v)).collect();
        TraceReport { spans, counters, labeled_counters, histograms }
    }
}

/// RAII guard from [`Collector::install_scoped`]; restores the
/// thread's previous trace state on drop. Not `Send`: it must drop on
/// the thread that installed it.
// audit: allow(deadpub) — part of a referenced public signature; demotion trips private_interfaces
pub struct ScopedCollector<'a> {
    collector: &'a Collector,
    prev: Tls,
    _on_installing_thread: PhantomData<Rc<()>>,
}

impl ScopedCollector<'_> {
    /// Drain the underlying collector (see [`Collector::drain`]).
    pub fn drain(&self) -> TraceReport {
        self.collector.drain()
    }
}

impl Drop for ScopedCollector<'_> {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.prev);
        let _ = TLS.try_with(|cell| cell.replace(prev));
    }
}
