//! Block-granular iteration over shared trace buffers.
//!
//! [`BlockIter`] decodes a slice of per-run [`TraceBuf`]s into fixed-size
//! [`EventBlock`]s, splitting the stream into its two non-interacting
//! halves: branch events (consumed by branch predictors) and call/return
//! events (consumed by return-address stacks). The input slice is read-only,
//! so any number of iterators — one per sweep worker — can walk the same
//! shared trace concurrently, and every consumer observes the complete
//! stream in capture order. That ordering is what makes the sweep executor
//! in `branchlab-experiments` bit-identical at every worker count.

use branchlab_ir::{Addr, FuncId};

use crate::event::BranchEvent;
use crate::replay::{ReplayError, TraceBuf, TraceEvent, TraceReader};

/// Default number of events per delivered [`EventBlock`], the sweep
/// executor's scoring-block size: large enough to amortize dispatch,
/// small enough to stay cache-resident.
pub const DEFAULT_BLOCK_EVENTS: usize = 16 * 1024;

/// A call or return event, in capture order relative to other call/return
/// events. Consumed by return-address stacks, which never observe plain
/// branch events.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CallRet {
    /// An executed call instruction.
    Call {
        /// Address of the call instruction.
        from: Addr,
        /// The function called into.
        callee: FuncId,
    },
    /// An executed return instruction.
    Ret {
        /// Address of the return instruction.
        from: Addr,
        /// The address control returns to.
        to: Addr,
    },
}

/// One decoded block of trace events, borrowed from a [`BlockIter`]'s
/// internal buffers and valid until the next [`BlockIter::next_block`]
/// call.
#[derive(Copy, Clone, Debug)]
pub struct EventBlock<'a> {
    /// Branch events in capture order.
    pub branches: &'a [BranchEvent],
    /// Call/return events in capture order.
    pub callrets: &'a [CallRet],
}

impl EventBlock<'_> {
    /// Total events in this block (branches plus calls/returns).
    #[must_use]
    pub fn len(&self) -> usize {
        self.branches.len() + self.callrets.len()
    }

    /// Whether the block holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty() && self.callrets.is_empty()
    }
}

/// Streaming block decoder over a shared slice of per-run [`TraceBuf`]s.
///
/// Blocks are filled to the configured event count across run boundaries;
/// only the final block may be short. An empty input slice — or one whose
/// buffers hold no events — yields no blocks at all.
pub struct BlockIter<'a> {
    runs: &'a [TraceBuf],
    next_run: usize,
    reader: Option<TraceReader<'a>>,
    block_events: usize,
    branches: Vec<BranchEvent>,
    callrets: Vec<CallRet>,
    delivered: u64,
    span: Option<branchlab_telemetry::SpanHandle>,
}

impl<'a> BlockIter<'a> {
    /// An iterator over `runs` delivering [`DEFAULT_BLOCK_EVENTS`]-event
    /// blocks.
    #[must_use]
    pub fn new(runs: &'a [TraceBuf]) -> Self {
        Self::with_block_events(runs, DEFAULT_BLOCK_EVENTS)
    }

    /// An iterator over `runs` delivering `block_events`-event blocks.
    ///
    /// # Panics
    /// Panics if `block_events` is zero.
    #[must_use]
    pub fn with_block_events(runs: &'a [TraceBuf], block_events: usize) -> Self {
        assert!(block_events > 0, "block size must be positive");
        BlockIter {
            runs,
            next_run: 0,
            reader: None,
            block_events,
            branches: Vec::with_capacity(block_events),
            callrets: Vec::new(),
            delivered: 0,
            span: None,
        }
    }

    /// Record this iterator's lifetime as a `block_replay` child span
    /// of `parent`, carrying the blocks decoded and events delivered
    /// as it goes (the span closes when the iterator drops). Off by
    /// default — untraced sweeps pay nothing.
    pub fn set_trace_parent(&mut self, parent: &branchlab_telemetry::SpanLink) {
        self.span = Some(parent.child("block_replay"));
    }

    /// Total events delivered so far across all blocks.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Decode the next block, or `Ok(None)` when every run is exhausted.
    /// The returned block borrows this iterator's buffers and is
    /// invalidated by the next call.
    ///
    /// # Errors
    /// Returns [`ReplayError`] on a truncated or corrupt buffer.
    pub fn next_block(&mut self) -> Result<Option<EventBlock<'_>>, ReplayError> {
        self.branches.clear();
        self.callrets.clear();
        while self.branches.len() + self.callrets.len() < self.block_events {
            let reader = match &mut self.reader {
                Some(r) => r,
                None => {
                    let Some(buf) = self.runs.get(self.next_run) else {
                        break;
                    };
                    self.next_run += 1;
                    self.reader.insert(TraceReader::new(buf))
                }
            };
            match reader.next_event()? {
                Some(TraceEvent::Branch(ev)) => self.branches.push(ev),
                Some(TraceEvent::Call { from, callee }) => {
                    self.callrets.push(CallRet::Call { from, callee });
                }
                Some(TraceEvent::Ret { from, to }) => {
                    self.callrets.push(CallRet::Ret { from, to });
                }
                None => self.reader = None,
            }
        }
        if self.branches.is_empty() && self.callrets.is_empty() {
            return Ok(None);
        }
        let n = (self.branches.len() + self.callrets.len()) as u64;
        self.delivered += n;
        if let Some(s) = self.span.as_mut() {
            s.add_work(n);
            s.arg("blocks", s.arg_value("blocks").unwrap_or(0) + 1);
        }
        Ok(Some(EventBlock {
            branches: &self.branches,
            callrets: &self.callrets,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BranchKind, ExecHooks};
    use crate::replay::Capture;
    use branchlab_ir::{BlockId, BranchId, Cond};

    fn branch(i: u32, taken: bool) -> BranchEvent {
        BranchEvent {
            pc: Addr(100 + i),
            kind: BranchKind::Cond,
            taken,
            target: Addr(500),
            fallthrough: Addr(101 + i),
            branch: BranchId {
                func: FuncId(0),
                block: BlockId(i % 7),
            },
            likely: false,
            cond: Some(Cond::Lt),
        }
    }

    /// A run with `n_branches` branch events plus one call/ret pair.
    fn run_with(n_branches: u32) -> TraceBuf {
        let mut cap = Capture::new();
        for i in 0..n_branches {
            cap.branch(&branch(i, i % 3 == 0));
        }
        if n_branches > 0 {
            cap.call(Addr(900), FuncId(2));
            cap.ret(Addr(950), Addr(901));
        }
        cap.into_buf()
    }

    fn drain(runs: &[TraceBuf], block_events: usize) -> (Vec<usize>, u64, u64) {
        let mut iter = BlockIter::with_block_events(runs, block_events);
        let mut sizes = Vec::new();
        let mut branches = 0u64;
        let mut callrets = 0u64;
        while let Some(block) = iter.next_block().unwrap() {
            assert!(!block.is_empty(), "iterator must never yield empty blocks");
            assert!(block.len() <= block_events);
            sizes.push(block.len());
            branches += block.branches.len() as u64;
            callrets += block.callrets.len() as u64;
        }
        assert_eq!(iter.delivered(), branches + callrets);
        (sizes, branches, callrets)
    }

    #[test]
    fn empty_run_slice_yields_no_blocks() {
        let (sizes, branches, callrets) = drain(&[], 8);
        assert!(sizes.is_empty());
        assert_eq!((branches, callrets), (0, 0));
    }

    #[test]
    fn empty_trace_yields_no_blocks() {
        let runs = vec![run_with(0)];
        assert_eq!(runs[0].events(), 0);
        let (sizes, ..) = drain(&runs, 8);
        assert!(sizes.is_empty());
    }

    #[test]
    fn trace_smaller_than_one_block_is_one_short_block() {
        let runs = vec![run_with(5)]; // 5 branches + call + ret = 7 events
        let (sizes, branches, callrets) = drain(&runs, 16 * 1024);
        assert_eq!(sizes, vec![7]);
        assert_eq!((branches, callrets), (5, 2));
    }

    #[test]
    fn exact_block_boundary_has_no_trailing_empty_block() {
        // 6 branches + 2 callrets = 8 events = exactly two 4-event blocks.
        let runs = vec![run_with(6)];
        let (sizes, branches, callrets) = drain(&runs, 4);
        assert_eq!(sizes, vec![4, 4]);
        assert_eq!((branches, callrets), (6, 2));
    }

    #[test]
    fn blocks_fill_across_run_boundaries() {
        // Runs of 7, 0, and 7 events; blocks of 5 events pack 14 events
        // into sizes [5, 5, 4] regardless of run boundaries.
        let runs = vec![run_with(5), run_with(0), run_with(5)];
        let (sizes, branches, callrets) = drain(&runs, 5);
        assert_eq!(sizes, vec![5, 5, 4]);
        assert_eq!((branches, callrets), (10, 4));
    }

    #[test]
    fn block_stream_preserves_capture_order() {
        let runs = vec![run_with(9)];
        let mut iter = BlockIter::with_block_events(&runs, 4);
        let mut seen = Vec::new();
        let mut callrets = Vec::new();
        while let Some(block) = iter.next_block().unwrap() {
            seen.extend_from_slice(block.branches);
            callrets.extend_from_slice(block.callrets);
        }
        let expect: Vec<BranchEvent> = (0..9).map(|i| branch(i, i % 3 == 0)).collect();
        assert_eq!(seen, expect);
        assert_eq!(
            callrets,
            vec![
                CallRet::Call {
                    from: Addr(900),
                    callee: FuncId(2)
                },
                CallRet::Ret {
                    from: Addr(950),
                    to: Addr(901)
                },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        let _ = BlockIter::with_block_events(&[], 0);
    }
}
