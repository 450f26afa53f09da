//! Structured tracing: RAII span guards with monotonic ids and parent
//! linkage, completing into a bounded in-memory ring buffer.
//!
//! A [`Tracer`] hands out [`SpanGuard`]s; nesting is tracked per thread,
//! so a span opened while another of the same tracer is live on the same
//! thread records that span as its parent. When a guard drops, the
//! finished [`SpanRecord`] is pushed into the tracer's [`Ring`] (oldest
//! records are evicted at capacity); subscribers drain the ring with
//! [`Tracer::drain`]. Because children drop before their parents,
//! drained records arrive children-first — [`crate::SpanNode::assemble`]
//! rebuilds the tree.

use std::cell::RefCell;
use std::time::Instant;

use kgnet_sync::atomic::{AtomicU64, Ordering};
use kgnet_sync::profile::SyncSite;

use crate::Ring;

/// Contention site for all tracer rings (every request thread pushes its
/// finished spans through one of these locks).
static TRACE_RING_SITE: SyncSite = SyncSite::new("obs.trace_ring");

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Monotonic id, unique within the tracer.
    pub id: u64,
    /// Id of the span that was live on the same thread when this one
    /// opened, if any.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Nanoseconds from the tracer's creation to this span's open.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub duration_nanos: u64,
    /// Key/value annotations attached while the span was open (request
    /// ids, methods, paths — whatever identifies this execution).
    pub tags: Vec<(String, String)>,
}

// Each tracer gets a process-unique id so the per-thread span stack can
// hold spans of several tracers without cross-linking their parents.
static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of (tracer id, span id) for the spans currently open on this
    /// thread, innermost last.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A span source plus the bounded ring buffer its finished spans land in.
pub struct Tracer {
    tracer_id: u64,
    next_span_id: AtomicU64,
    epoch: Instant,
    ring: Ring<SpanRecord>,
}

impl Tracer {
    /// New tracer whose ring retains at most `capacity` finished spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            tracer_id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            next_span_id: AtomicU64::new(1),
            epoch: Instant::now(),
            ring: Ring::new(capacity, &TRACE_RING_SITE),
        }
    }

    /// Open a span. The returned guard records the span into the ring
    /// when dropped; spans opened on the same thread while it is live get
    /// it as their parent.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard<'_> {
        let id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.iter().rev().find(|&&(t, _)| t == self.tracer_id).map(|&(_, s)| s);
            stack.push((self.tracer_id, id));
            parent
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            name: name.into(),
            start_nanos: duration_nanos_since(self.epoch),
            start: Instant::now(),
            tags: Vec::new(),
        }
    }

    /// Drain every buffered record, oldest first.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.ring.drain()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no record is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity (oldest records are evicted beyond it).
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total spans evicted unread because the ring was at capacity.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity())
            .field("buffered", &self.len())
            .finish_non_exhaustive()
    }
}

fn duration_nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// RAII guard for an open span: records the finished span on drop.
#[must_use = "a span measures until the guard drops — binding to `_` closes it immediately"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: String,
    start_nanos: u64,
    start: Instant,
    tags: Vec<(String, String)>,
}

impl SpanGuard<'_> {
    /// This span's id (usable as a parent reference in diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach a key/value annotation; it rides the finished
    /// [`SpanRecord`] into the ring (and, via
    /// [`crate::SpanNode::assemble`], onto the profile tree).
    pub fn tag(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.tags.push((key.into(), value.into()));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Normally the top of the stack; a guard moved across threads
            // or dropped out of order is removed wherever it sits.
            if let Some(at) =
                stack.iter().rposition(|&(t, s)| t == self.tracer.tracer_id && s == self.id)
            {
                stack.remove(at);
            }
        });
        self.tracer.ring.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_nanos: self.start_nanos,
            duration_nanos: duration_nanos_since(self.start),
            tags: std::mem::take(&mut self.tags),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_drop_children_first() {
        let t = Tracer::new(16);
        {
            let outer = t.span("outer");
            let outer_id = outer.id();
            {
                let inner = t.span("inner");
                assert_ne!(inner.id(), outer_id);
                let _leaf = t.span("leaf");
            }
            let _sibling = t.span("sibling");
        }
        let records = t.drain();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        // Drop order: leaf, inner, sibling, outer.
        assert_eq!(names, vec!["leaf", "inner", "sibling", "outer"]);
        let by_name = |n: &str| records.iter().find(|r| r.name == n).unwrap();
        let outer = by_name("outer");
        assert_eq!(outer.parent, None);
        assert_eq!(by_name("inner").parent, Some(outer.id));
        assert_eq!(by_name("leaf").parent, Some(by_name("inner").id));
        assert_eq!(by_name("sibling").parent, Some(outer.id));
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions_as_dropped() {
        let t = Tracer::new(3);
        for i in 0..5 {
            let _s = t.span(format!("s{i}"));
        }
        assert_eq!((t.len(), t.capacity(), t.dropped()), (3, 3, 2));
        let names: Vec<String> = t.drain().into_iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["s2", "s3", "s4"]);
        assert!(t.is_empty());
    }

    #[test]
    fn span_ids_are_monotonic_and_drain_empties() {
        let t = Tracer::new(8);
        {
            let a = t.span("a");
            let b = t.span("b");
            assert!(b.id() > a.id());
        }
        assert_eq!(t.drain().len(), 2);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn two_tracers_on_one_thread_do_not_cross_link() {
        let (t1, t2) = (Tracer::new(8), Tracer::new(8));
        {
            let _a = t1.span("t1-outer");
            let b = t2.span("t2-root");
            // t2's span must not adopt t1's span as parent.
            drop(b);
        }
        assert_eq!(t2.drain()[0].parent, None);
        let t1_records = t1.drain();
        assert_eq!(t1_records[0].parent, None);
    }

    #[test]
    fn tags_ride_the_finished_record() {
        let t = Tracer::new(4);
        {
            let mut s = t.span("tagged");
            s.tag("request_id", "req-7");
            s.tag("method", "GET");
        }
        let records = t.drain();
        assert_eq!(
            records[0].tags,
            vec![
                ("request_id".to_owned(), "req-7".to_owned()),
                ("method".to_owned(), "GET".to_owned())
            ]
        );
    }

    #[test]
    fn parents_survive_interleaved_tracers() {
        let (t1, t2) = (Tracer::new(8), Tracer::new(8));
        let outer = t1.span("outer");
        let outer_id = outer.id();
        let _other = t2.span("other");
        let inner = t1.span("inner");
        assert_ne!(inner.id(), outer_id);
        drop(inner);
        drop(outer);
        let records = t1.drain();
        assert_eq!(records[0].name, "inner");
        assert_eq!(records[0].parent, Some(outer_id));
    }
}
