//! Compact branch-trace capture and replay.
//!
//! The paper's own methodology is trace-driven: the benchmarks were
//! traced once and every scheme was scored off the recorded branch
//! stream. [`TraceBuf`] is that recording — one buffer per
//! (benchmark, layout, run) — storing every [`ExecHooks`] event
//! (branches, calls, returns) as a **site table** plus a **word stream**:
//!
//! * every static field of an event is fixed by its instruction (a
//!   branch's pc, kind, fall-through, direct target, branch id, likely
//!   bit and comparison; a call's `from`/`callee`; a return's `from`),
//!   so each distinct static record is stored once, as a site;
//! * each event is one `u32` word, `site << 1 | taken`, followed by one
//!   extra word for the only dynamic fields — an indirect jump's target
//!   and a return's `to`.
//!
//! That is ~4 bytes per event, and decoding an event is one bounds-checked
//! table lookup. [`Capture`] adapts a `TraceBuf` to `ExecHooks` so the
//! interpreter fills it in a single live pass, and [`replay`] feeds the
//! recorded stream back into any other `ExecHooks` sink (predictor
//! evaluators, mix collectors, a return-address stack) without
//! re-interpreting the program.
//!
//! Replay is bit-exact for *any* event stream: capture compares each
//! event's static fields with its site's template and allocates a new
//! site on any difference, so the reconstructed [`BranchEvent`]s compare
//! equal to the live ones field for field, and every statistics
//! collector produces identical results either way (enforced by the
//! `replay_fidelity` integration tests in `branchlab-experiments`).

use branchlab_ir::{Addr, FuncId};

use crate::cache::SITE_BYTES;
use crate::event::{BranchEvent, BranchKind, ExecHooks};

/// One run's recorded event stream: a site table and one word per
/// event (two for indirect jumps and returns).
///
/// Append with [`Capture`] (or the `record_*` methods), read back with
/// [`replay`]. Buffers are deterministic in the event stream, so equal
/// executions produce identical buffers.
#[derive(Clone, Debug, Default)]
pub struct TraceBuf {
    /// Static record of every site, with the dynamic fields (`taken`,
    /// an indirect target, a return's `to`) zeroed.
    sites: Vec<TraceEvent>,
    /// `site << 1 | taken` per event, each indirect jump and return
    /// followed by its dynamic address.
    words: Vec<u32>,
    events: u64,
    index: SiteIndex,
}

/// Two buffers are equal when they hold the same site table, words and
/// event count; the capture-side pc index is excluded, so a disk-loaded
/// buffer compares equal to the freshly captured one.
impl PartialEq for TraceBuf {
    fn eq(&self, other: &Self) -> bool {
        self.sites == other.sites && self.words == other.words && self.events == other.events
    }
}

impl Eq for TraceBuf {}

/// A site's static record packed into three words, so capture compares
/// an event with its site's template in one branch-free test. Injective:
/// equal keys mean equal templates.
type SiteKey = [u64; 3];

/// The packed record of a branch whose template target is `target`.
#[inline]
fn branch_key(ev: &BranchEvent, target: u32) -> SiteKey {
    [
        u64::from(ev.pc.0) | u64::from(target) << 32,
        u64::from(ev.fallthrough.0) | u64::from(ev.branch.func.0) << 32,
        u64::from(ev.branch.block.0)
            | (ev.kind as u64) << 32
            | u64::from(ev.likely) << 40
            | u64::from(ev.cond.map_or(u8::MAX, |c| c as u8)) << 48,
    ]
}

fn site_key(site: &TraceEvent) -> SiteKey {
    match site {
        TraceEvent::Branch(ev) => branch_key(ev, ev.target.0),
        TraceEvent::Call { from, callee } => {
            [u64::from(from.0) | u64::from(callee.0) << 32, 0, 3 << 32]
        }
        TraceEvent::Ret { from, .. } => [u64::from(from.0), 0, 4 << 32],
    }
}

/// Capture-side index of the sites: a multimap from a pc to the sites
/// recorded at it (open addressing with linear probing, kept at most
/// half full), fronted by a guess of the next site from the previous
/// event. Its size follows the number of sites and never the pc values.
#[derive(Clone, Debug, Default)]
struct SiteIndex {
    /// Packed static record of every site.
    keys: Vec<SiteKey>,
    /// `site + 1` per slot, hashed by pc; zero marks an empty slot.
    slots: Vec<u32>,
    /// Per event word (`site << 1 | taken`): the site recorded right
    /// after it last time. Control flow mostly repeats, so this guess,
    /// checked against `keys`, spares most events the hash probe.
    next: Vec<u32>,
    /// The previous event's word.
    last: u32,
}

impl SiteIndex {
    /// The home slot of a site: Fibonacci hashing of its pc (the low
    /// half of the first key word); the product's high half mixes every
    /// pc bit.
    fn home(&self, key: &SiteKey) -> usize {
        let pc = key[0] & 0xffff_ffff;
        ((pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (self.slots.len() - 1)
    }

    /// The site whose packed record is `key`, if any.
    fn find(&self, key: &SiteKey) -> Option<u32> {
        let same = |site: u32| {
            let k = &self.keys[site as usize];
            (k[0] ^ key[0]) | (k[1] ^ key[1]) | (k[2] ^ key[2]) == 0
        };
        let guess = *self.next.get(self.last as usize)?;
        if same(guess) {
            return Some(guess);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let site = self.slots[i].checked_sub(1)?;
            if same(site) {
                return Some(site);
            }
            i = (i + 1) & mask;
        }
    }

    /// Note the event `word` of `site` as the next guess's context.
    fn follow(&mut self, site: u32, word: u32) {
        if let Some(next) = self.next.get_mut(self.last as usize) {
            *next = site;
        }
        self.last = word;
    }

    /// Index a new site; it must be the next site number.
    fn push(&mut self, key: SiteKey) {
        self.keys.push(key);
        self.next.extend([0, 0]);
        if self.keys.len() * 2 > self.slots.len() {
            self.slots = vec![0; (self.keys.len() * 2).next_power_of_two().max(16)];
            for site in 0..self.keys.len() {
                self.slot(site);
            }
        } else {
            self.slot(self.keys.len() - 1);
        }
    }

    fn slot(&mut self, site: usize) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(&self.keys[site]);
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = site as u32 + 1;
    }
}

impl TraceBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Encoded size in bytes: the site table plus the word stream, as
    /// stored on disk by [`save_trace`](crate::save_trace).
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.sites.len() * SITE_BYTES + self.words.len() * 4
    }

    /// The site table and word stream (for on-disk caching).
    pub(crate) fn table(&self) -> (&[TraceEvent], &[u32]) {
        (&self.sites, &self.words)
    }

    /// Rebuild a buffer from a stored site table, word stream and event
    /// count (the on-disk cache loader). The sites must be templates as
    /// capture builds them; the words are *not* validated here —
    /// [`replay`] reports corruption.
    pub(crate) fn from_table(sites: Vec<TraceEvent>, words: Vec<u32>, events: u64) -> Self {
        let mut index = SiteIndex::default();
        for site in &sites {
            index.push(site_key(site));
        }
        TraceBuf {
            sites,
            words,
            events,
            index,
        }
    }

    /// Append the word of a `taken` (or not) event whose site's packed
    /// record is `key`, allocating the site from `template` on first
    /// sight.
    #[inline]
    fn push_word(&mut self, key: SiteKey, template: impl FnOnce() -> TraceEvent, taken: bool) {
        let site = self.index.find(&key).unwrap_or_else(|| {
            let site = u32::try_from(self.sites.len())
                .ok()
                .filter(|&s| s < 1 << 31)
                .expect("trace site table full");
            self.sites.push(template());
            self.index.push(key);
            site
        });
        let word = site << 1 | u32::from(taken);
        self.index.follow(site, word);
        self.words.push(word);
        self.events += 1;
    }

    /// Record one executed branch.
    pub fn record_branch(&mut self, ev: &BranchEvent) {
        // An indirect jump's target is dynamic: its template holds zero.
        let indirect = ev.kind == BranchKind::UncondIndirect;
        let template = BranchEvent {
            taken: false,
            target: if indirect { Addr(0) } else { ev.target },
            ..*ev
        };
        let key = branch_key(ev, template.target.0);
        self.push_word(key, || TraceEvent::Branch(template), ev.taken);
        if indirect {
            self.words.push(ev.target.0);
        }
    }

    /// Record one executed call.
    pub fn record_call(&mut self, from: Addr, callee: FuncId) {
        let site = TraceEvent::Call { from, callee };
        self.push_word(site_key(&site), || site, false);
    }

    /// Record one executed return.
    pub fn record_ret(&mut self, from: Addr, to: Addr) {
        let site = TraceEvent::Ret { from, to: Addr(0) };
        self.push_word(site_key(&site), || site, false);
        self.words.push(to.0);
    }
}

/// [`ExecHooks`] adapter that records every event into a [`TraceBuf`].
///
/// Hand `&mut Capture` to the interpreter (optionally composed with
/// live sinks via the tuple impl) and take the buffer out afterwards.
#[derive(Clone, Debug, Default)]
pub struct Capture {
    /// The buffer being filled.
    pub buf: TraceBuf,
}

impl Capture {
    /// A capture with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the capture, yielding the recorded buffer.
    #[must_use]
    pub fn into_buf(self) -> TraceBuf {
        self.buf
    }
}

impl ExecHooks for Capture {
    fn branch(&mut self, ev: &BranchEvent) {
        self.buf.record_branch(ev);
    }
    fn call(&mut self, from: Addr, callee: FuncId) {
        self.buf.record_call(from, callee);
    }
    fn ret(&mut self, from: Addr, to: Addr) {
        self.buf.record_ret(from, to);
    }
}

/// A malformed trace buffer (truncated stream, out-of-range site).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayError {
    /// Word offset of the record that failed to decode.
    pub offset: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt trace at word {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for ReplayError {}

/// One decoded trace record, as yielded by [`TraceReader`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An executed branch (any [`BranchKind`]).
    Branch(BranchEvent),
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

/// Streaming decoder over one [`TraceBuf`]'s records.
///
/// Pull one event at a time with [`TraceReader::next_event`]; the final
/// `Ok(None)` also validates the buffer's recorded event count. Several
/// readers can decode the same shared `&TraceBuf` concurrently — the
/// buffer is never mutated — which is what the parallel sweep executor
/// in `branchlab-experiments` relies on.
pub struct TraceReader<'a> {
    sites: &'a [TraceEvent],
    words: &'a [u32],
    pos: usize,
    delivered: u64,
    expected: u64,
}

impl<'a> TraceReader<'a> {
    /// A reader positioned at the first record of `buf`.
    #[must_use]
    pub fn new(buf: &'a TraceBuf) -> Self {
        TraceReader {
            sites: &buf.sites,
            words: &buf.words,
            pos: 0,
            delivered: 0,
            expected: buf.events,
        }
    }

    /// Events decoded so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    fn err(&self, reason: &'static str) -> ReplayError {
        ReplayError {
            offset: self.pos,
            reason,
        }
    }

    /// The dynamic address word following the current event's word.
    #[inline]
    fn dynamic(&mut self) -> Result<Addr, ReplayError> {
        let word = *self
            .words
            .get(self.pos)
            .ok_or_else(|| self.err("truncated dynamic word"))?;
        self.pos += 1;
        Ok(Addr(word))
    }

    #[cold]
    fn finish(&self) -> Result<Option<TraceEvent>, ReplayError> {
        if self.delivered == self.expected {
            Ok(None)
        } else {
            Err(self.err("event count mismatch"))
        }
    }

    /// Decode the next record, or `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    /// Returns [`ReplayError`] on a truncated or corrupt buffer,
    /// including an event count that does not match the stream.
    #[inline]
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, ReplayError> {
        let Some(&word) = self.words.get(self.pos) else {
            return self.finish();
        };
        let Some(&site) = self.sites.get((word >> 1) as usize) else {
            return Err(self.err("site index out of range"));
        };
        self.pos += 1;
        let mut event = site;
        match &mut event {
            TraceEvent::Branch(ev) => {
                ev.taken = word & 1 != 0;
                if ev.kind == BranchKind::UncondIndirect {
                    ev.target = self.dynamic()?;
                }
            }
            TraceEvent::Ret { to, .. } => *to = self.dynamic()?,
            TraceEvent::Call { .. } => {}
        }
        self.delivered += 1;
        Ok(Some(event))
    }
}

/// Replay a recorded run into `hooks`, reconstructing the exact event
/// stream the interpreter produced at capture time. Returns the number
/// of events delivered.
///
/// ```
/// use branchlab_trace::{replay, BranchMix, Capture, ExecHooks};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Capture a live run once …
/// let module = branchlab_minic::compile(
///     "int main() { int i; int s = 0; for (i = 0; i < 10; i++) { s += i; } return s; }",
/// )?;
/// let program = branchlab_ir::lower(&module)?;
/// let mut cap = Capture::new();
/// branchlab_interp::run(&program, &Default::default(), &[], &mut cap)?;
/// let buf = cap.into_buf();
///
/// // … then replay it into any sink, bit-identical to the live pass.
/// let mut mix = BranchMix::new();
/// let delivered = replay(&buf, &mut mix)?;
/// assert_eq!(delivered, buf.events());
/// assert!(mix.cond_total() > 0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
/// Returns [`ReplayError`] on a truncated or corrupt buffer (the event
/// count must also match the stream).
pub fn replay<H: ExecHooks>(buf: &TraceBuf, hooks: &mut H) -> Result<u64, ReplayError> {
    let mut reader = TraceReader::new(buf);
    while let Some(event) = reader.next_event()? {
        match event {
            TraceEvent::Branch(ev) => hooks.branch(&ev),
            TraceEvent::Call { from, callee } => hooks.call(from, callee),
            TraceEvent::Ret { from, to } => hooks.ret(from, to),
        }
    }
    Ok(reader.delivered())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecorder;
    use branchlab_ir::{BlockId, BranchId, Cond};

    fn branch(pc: u32, kind: BranchKind, taken: bool, target: u32, likely: bool) -> BranchEvent {
        BranchEvent {
            pc: Addr(pc),
            kind,
            taken,
            target: Addr(target),
            fallthrough: Addr(pc + 3),
            branch: BranchId {
                func: FuncId(pc % 5),
                block: BlockId(pc % 11),
            },
            likely,
            cond: if kind == BranchKind::Cond {
                Some(Cond::Lt)
            } else {
                None
            },
        }
    }

    #[test]
    fn capture_replay_roundtrip_is_bit_exact() {
        let events = vec![
            branch(10, BranchKind::Cond, true, 50, true),
            branch(50, BranchKind::Cond, false, 10, false),
            branch(53, BranchKind::UncondDirect, true, 7, false),
            branch(7, BranchKind::UncondIndirect, true, 900, false),
        ];
        let mut cap = Capture::new();
        for ev in &events {
            cap.branch(ev);
        }
        cap.call(Addr(900), FuncId(3));
        cap.ret(Addr(950), Addr(901));
        let buf = cap.into_buf();
        assert_eq!(buf.events(), 6);

        struct All {
            rec: TraceRecorder,
            calls: Vec<(Addr, FuncId)>,
            rets: Vec<(Addr, Addr)>,
        }
        impl ExecHooks for All {
            fn branch(&mut self, ev: &BranchEvent) {
                self.rec.branch(ev);
            }
            fn call(&mut self, from: Addr, callee: FuncId) {
                self.calls.push((from, callee));
            }
            fn ret(&mut self, from: Addr, to: Addr) {
                self.rets.push((from, to));
            }
        }
        let mut all = All {
            rec: TraceRecorder::with_capacity(64),
            calls: Vec::new(),
            rets: Vec::new(),
        };
        let n = replay(&buf, &mut all).unwrap();
        assert_eq!(n, 6);
        assert_eq!(all.rec.events(), events.as_slice());
        assert_eq!(all.calls, vec![(Addr(900), FuncId(3))]);
        assert_eq!(all.rets, vec![(Addr(950), Addr(901))]);
    }

    #[test]
    fn encoding_is_compact() {
        let mut cap = Capture::new();
        // A tight loop: same branch taken 1000 times is one site and
        // one word per event.
        for _ in 0..1000 {
            cap.branch(&branch(64, BranchKind::Cond, true, 60, true));
        }
        let buf = cap.into_buf();
        assert_eq!(buf.byte_len(), SITE_BYTES + 4 * 1000);
    }

    #[test]
    fn one_site_per_distinct_static_record() {
        let mut cap = Capture::new();
        let base = branch(64, BranchKind::Cond, true, 60, false);
        for taken in [true, false, true] {
            cap.branch(&BranchEvent { taken, ..base });
        }
        // Same pc, different static fields: each is its own site.
        cap.branch(&BranchEvent {
            target: Addr(61),
            ..base
        });
        cap.branch(&BranchEvent {
            likely: true,
            ..base
        });
        // Indirect targets and return addresses are dynamic: one site.
        for target in [1, u32::MAX, 7] {
            cap.branch(&branch(80, BranchKind::UncondIndirect, true, target, false));
            cap.ret(Addr(90), Addr(target));
        }
        // A call at a branch's pc is its own site too.
        cap.call(Addr(64), FuncId(2));
        let buf = cap.into_buf();
        assert_eq!(buf.sites.len(), 6);
        assert_eq!(buf.events(), 12);
    }

    #[test]
    fn appending_to_a_rebuilt_buffer_reuses_its_sites() {
        let mut cap = Capture::new();
        cap.branch(&branch(10, BranchKind::Cond, true, 50, false));
        cap.call(Addr(20), FuncId(1));
        let buf = cap.into_buf();
        let mut loaded = TraceBuf::from_table(buf.sites.clone(), buf.words.clone(), buf.events);
        assert_eq!(loaded, buf);
        loaded.record_call(Addr(20), FuncId(1));
        loaded.record_branch(&branch(10, BranchKind::Cond, false, 50, false));
        assert_eq!(loaded.sites, buf.sites);
        assert_eq!(replay(&loaded, &mut ()).unwrap(), 4);
    }

    #[test]
    fn truncated_buffer_is_reported() {
        // The dynamic target word of an indirect jump is cut off.
        let mut cap = Capture::new();
        cap.branch(&branch(10, BranchKind::UncondIndirect, true, 50, false));
        let mut buf = cap.into_buf();
        buf.words.pop();
        let err = replay(&buf, &mut ()).unwrap_err();
        assert_eq!(err.reason, "truncated dynamic word");
        assert!(err.to_string().contains("corrupt trace"));
        // Same for a return's `to`.
        let mut cap = Capture::new();
        cap.ret(Addr(10), Addr(20));
        let mut buf = cap.into_buf();
        buf.words.pop();
        assert_eq!(
            replay(&buf, &mut ()).unwrap_err().reason,
            "truncated dynamic word"
        );
    }

    #[test]
    fn site_index_out_of_range_is_reported() {
        let mut cap = Capture::new();
        cap.call(Addr(1), FuncId(0));
        let mut buf = cap.into_buf();
        buf.words[0] = 1 << 1;
        let err = replay(&buf, &mut ()).unwrap_err();
        assert_eq!(err.reason, "site index out of range");
        assert_eq!(err.offset, 0);
    }

    #[test]
    fn event_count_mismatch_is_reported() {
        let mut cap = Capture::new();
        cap.call(Addr(1), FuncId(0));
        cap.ret(Addr(2), Addr(3));
        let buf = cap.into_buf();
        for lied in [1, 3] {
            let bad = TraceBuf {
                events: lied,
                ..buf.clone()
            };
            assert_eq!(
                replay(&bad, &mut ()).unwrap_err().reason,
                "event count mismatch",
                "recorded count {lied}"
            );
        }
    }
}
