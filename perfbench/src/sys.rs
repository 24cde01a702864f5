//! Facts about the machine and build a result was taken on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `std::thread::available_parallelism`, 1 when unknown.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `git describe --always --dirty` of the working directory, without
/// searching parent directories (a checkout that is not itself a
/// repository reports `"unknown"`).
#[must_use]
pub fn git_describe() -> String {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd
        .as_deref()
        .and_then(std::path::Path::parent)
        .map(|p| p.as_os_str().to_owned())
        .unwrap_or_default();
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's allocator: the system allocator, counting live heap
/// bytes and their high-water mark. Unlike `VmHWM`, the heap peak does
/// not depend on which of malloc's per-thread arenas a freed block went
/// back to, so it repeats from run to run.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Peak live heap since start-up, MB.
#[must_use]
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allowance for what the other tests allocate and free meanwhile.
    const SLACK: usize = 8 << 20;

    #[test]
    fn the_counters_follow_a_large_allocation() {
        let live = || LIVE.load(Ordering::Relaxed);
        let start = live();
        let mut block = vec![1u8; 32 << 20];
        block.resize(64 << 20, 2);
        std::hint::black_box(&block);
        let held = live();
        assert!(held + SLACK >= start + (64 << 20));
        assert!(peak_heap_mb() * 1024.0 * 1024.0 >= (held - SLACK) as f64);
        drop(block);
        assert!(live() <= held - (64 << 20) + SLACK);
    }
}
