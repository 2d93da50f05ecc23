//! Reading a columnar frame borrows it. The header scan allocates
//! nothing at all, and a full decode allocates only the vectors its
//! result owns: no copy of the frame.
//!
//! Its own test binary: the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scrub_core::columnar::{ColumnData, ColumnarFrame};
use scrub_core::event::{Event, RequestId};
use scrub_core::schema::EventTypeId;
use scrub_core::value::Value;

thread_local! {
    /// Allocations made by this thread (the test harness runs every test
    /// on a thread of its own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the thread-local
// counter is const-initialised and has no destructor, so touching it
// allocates nothing and is sound at any point of a thread's life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// 256 events of one type with a `long` and a `double` field, none null:
/// one chunk, two typed columns without validity bitmaps.
fn frame() -> (Vec<Event>, ColumnarFrame) {
    let events: Vec<Event> = (0..256u64)
        .map(|i| {
            Event::new(
                EventTypeId(1),
                RequestId(i * 7_919),
                1_700_000_000_000 + i as i64,
                vec![Value::Long(i as i64 - 100), Value::Double(i as f64 / 3.0)],
            )
        })
        .collect();
    let frame = ColumnarFrame::from_events(&events);
    (events, frame)
}

#[test]
fn the_meta_scan_allocates_nothing() {
    let (events, frame) = frame();
    let mut seen = 0usize;
    let mut sum = 0u64;
    let (scanned, n) = allocations(|| {
        frame.for_each_meta(|rid, ts| {
            seen += 1;
            sum = sum.wrapping_add(rid ^ ts as u64);
        })
    });
    scanned.unwrap();
    assert_eq!(n, 0, "for_each_meta allocated");
    assert_eq!(seen, events.len());
    let want = events.iter().fold(0u64, |s, e| {
        s.wrapping_add(e.request_id.0 ^ e.timestamp as u64)
    });
    assert_eq!(sum, want);
}

/// The decoded batch owns six vectors: the chunk list, the chunk's
/// request ids, its timestamps, its column list, the long column's values
/// and the double column's values. A dense column is read into its final
/// vector, so nothing else is allocated, and the frame is not copied.
#[test]
fn decode_allocates_only_what_the_batch_owns() {
    let (events, frame) = frame();
    let (batch, n) = allocations(|| frame.decode().unwrap());
    assert_eq!(n, 6, "decode allocated beyond its result");
    let chunk = &batch.chunks[0];
    assert_eq!(batch.chunks.len(), 1);
    assert_eq!(chunk.len(), events.len());
    assert!(chunk.columns.iter().all(|c| c.validity.is_none()));
    assert!(matches!(chunk.columns[0].data, ColumnData::Long(_)));
    assert!(matches!(chunk.columns[1].data, ColumnData::Double(_)));
    assert_eq!(frame.to_events().unwrap(), events);
}
