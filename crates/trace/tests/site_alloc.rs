//! Capture memory follows the number of branch sites, never the pc
//! values: a table indexed by pc would need gigabytes for pcs spread
//! over the `u32` range.
//!
//! This binary installs a counting global allocator, so it holds a
//! single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use branchlab_ir::{Addr, BlockId, BranchId, Cond, FuncId};
use branchlab_trace::{BranchEvent, BranchKind, Capture, ExecHooks};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const SITES: u32 = 100_000;

/// Peak bytes allocated while capturing one event at each pc.
fn capture_peak(pcs: impl Iterator<Item = u32>) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut cap = Capture::new();
    for pc in pcs {
        cap.branch(&BranchEvent {
            pc: Addr(pc),
            kind: BranchKind::Cond,
            taken: pc % 3 == 0,
            target: Addr(pc / 2),
            fallthrough: Addr(pc.wrapping_add(1)),
            branch: BranchId {
                func: FuncId(0),
                block: BlockId(pc % 7),
            },
            likely: false,
            cond: Some(Cond::Ne),
        });
    }
    let buf = cap.into_buf();
    assert_eq!(buf.events(), u64::from(SITES));
    PEAK.load(Ordering::Relaxed) - base
}

#[test]
fn capture_allocates_per_site_not_per_pc_value() {
    let spread = capture_peak((0..SITES).map(|i| i.wrapping_mul(0x9E37_79B9) | 1));
    let dense = capture_peak(0..SITES);
    let per_site = spread / SITES as usize;
    assert!(
        per_site <= 256,
        "{per_site} bytes per site for pcs spread over u32"
    );
    assert!(
        spread <= dense + dense / 20,
        "spread pcs allocate {spread} bytes, dense pcs {dense}"
    );
}
