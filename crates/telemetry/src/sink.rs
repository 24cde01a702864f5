//! Predictor probe events and sinks.
//!
//! Branch predictors are generic over a [`TelemetrySink`]; the default
//! [`NoopSink`] has an empty `emit` and `enabled() == false`, so the
//! uninstrumented path monomorphizes away entirely. The harness plugs
//! in a [`SiteProbe`] to tally per-branch-site outcomes and structural
//! BTB events (hits, misses, evictions, aliasing).

use std::collections::HashMap;

use crate::json::JsonValue;

/// What happened at a branch site.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    /// The site was resident in the buffer at predict time.
    Hit,
    /// The site was absent from the buffer at predict time.
    Miss,
    /// This site's entry was evicted (LRU victim of another insert).
    Evict,
    /// The buffered target differed from the actual taken target.
    Alias,
    /// The branch resolved taken.
    Taken,
    /// The branch resolved not taken.
    NotTaken,
    /// The prediction was wrong (direction or target).
    Mispredict,
}

/// One probe event, attributed to a static branch site.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ProbeEvent {
    /// Static branch site (instruction address).
    pub site: u32,
    /// What happened.
    pub kind: ProbeKind,
}

/// Receives predictor probe events.
///
/// `Send` is a supertrait so predictors generic over a sink stay `Send`
/// and can be scored on sweep worker threads; every sink is plain owned
/// data (or a `&mut` to it), so the bound costs implementors nothing.
pub trait TelemetrySink: Send {
    /// Whether events are being collected. Callers may skip building
    /// events when this is `false`; implementations should make it a
    /// constant or a cheap flag read.
    fn enabled(&self) -> bool;

    /// Record one event.
    fn emit(&mut self, event: ProbeEvent);
}

/// A sink that discards everything; `enabled()` is `false`, so
/// instrumentation guarded on it compiles to nothing measurable.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&mut self, _event: ProbeEvent) {}
}

/// Per-site event tallies.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteCounters {
    /// Buffer hits at predict time.
    pub hits: u64,
    /// Buffer misses at predict time.
    pub misses: u64,
    /// Times this site's entry was evicted (it was the LRU victim of
    /// another site's insert).
    pub evicts: u64,
    /// Target-aliasing events.
    pub aliases: u64,
    /// Taken resolutions.
    pub taken: u64,
    /// Not-taken resolutions.
    pub not_taken: u64,
    /// Mispredictions.
    pub mispredicts: u64,
}

impl SiteCounters {
    /// Dynamic executions observed (taken + not-taken resolutions).
    #[must_use]
    pub fn executions(&self) -> u64 {
        self.taken + self.not_taken
    }

    fn bump(&mut self, kind: ProbeKind) {
        match kind {
            ProbeKind::Hit => self.hits += 1,
            ProbeKind::Miss => self.misses += 1,
            ProbeKind::Evict => self.evicts += 1,
            ProbeKind::Alias => self.aliases += 1,
            ProbeKind::Taken => self.taken += 1,
            ProbeKind::NotTaken => self.not_taken += 1,
            ProbeKind::Mispredict => self.mispredicts += 1,
        }
    }
}

/// Collects [`ProbeEvent`]s into per-site [`SiteCounters`]; every
/// probe records (`SiteProbe::default()` starts empty).
#[derive(Clone, Debug, Default)]
pub struct SiteProbe {
    sites: HashMap<u32, SiteCounters>,
}

impl SiteProbe {
    /// Per-site tallies collected so far.
    #[must_use]
    pub fn sites(&self) -> &HashMap<u32, SiteCounters> {
        &self.sites
    }

    /// Sum of one counter across all sites.
    #[must_use]
    pub fn total(&self, kind: ProbeKind) -> u64 {
        self.sites
            .values()
            .map(|c| match kind {
                ProbeKind::Hit => c.hits,
                ProbeKind::Miss => c.misses,
                ProbeKind::Evict => c.evicts,
                ProbeKind::Alias => c.aliases,
                ProbeKind::Taken => c.taken,
                ProbeKind::NotTaken => c.not_taken,
                ProbeKind::Mispredict => c.mispredicts,
            })
            .sum()
    }

    /// The `k` sites with the most mispredictions, descending; ties
    /// break on site address for determinism.
    #[must_use]
    pub fn top_mispredicted(&self, k: usize) -> Vec<(u32, SiteCounters)> {
        let mut sites: Vec<(u32, SiteCounters)> =
            self.sites.iter().map(|(&s, &c)| (s, c)).collect();
        sites.sort_by(|a, b| b.1.mispredicts.cmp(&a.1.mispredicts).then(a.0.cmp(&b.0)));
        sites.truncate(k);
        sites
    }

    /// Merge another probe's tallies into this one.
    pub fn merge(&mut self, other: &SiteProbe) {
        for (&site, c) in &other.sites {
            let mine = self.sites.entry(site).or_default();
            mine.hits += c.hits;
            mine.misses += c.misses;
            mine.evicts += c.evicts;
            mine.aliases += c.aliases;
            mine.taken += c.taken;
            mine.not_taken += c.not_taken;
            mine.mispredicts += c.mispredicts;
        }
    }

    /// JSON summary: totals plus the top-`k` mispredicting sites, as
    /// embedded in run manifests.
    #[must_use]
    pub fn to_json_value(&self, k: usize) -> JsonValue {
        let top = self
            .top_mispredicted(k)
            .into_iter()
            .map(|(site, c)| {
                JsonValue::obj(vec![
                    ("site", JsonValue::from(u64::from(site))),
                    ("executions", c.executions().into()),
                    ("mispredicts", c.mispredicts.into()),
                    ("hits", c.hits.into()),
                    ("misses", c.misses.into()),
                    ("evicts", c.evicts.into()),
                    ("aliases", c.aliases.into()),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("sites", JsonValue::from(self.sites.len())),
            ("hits", self.total(ProbeKind::Hit).into()),
            ("misses", self.total(ProbeKind::Miss).into()),
            ("evicts", self.total(ProbeKind::Evict).into()),
            ("aliases", self.total(ProbeKind::Alias).into()),
            ("mispredicts", self.total(ProbeKind::Mispredict).into()),
            ("top_mispredicted", JsonValue::Arr(top)),
        ])
    }
}

/// A probe holding the given per-site tallies — how a scorer that
/// counts per site itself (rather than emitting one event at a time)
/// publishes the same view.
impl FromIterator<(u32, SiteCounters)> for SiteProbe {
    fn from_iter<I: IntoIterator<Item = (u32, SiteCounters)>>(iter: I) -> Self {
        SiteProbe {
            sites: iter.into_iter().collect(),
        }
    }
}

impl TelemetrySink for SiteProbe {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn emit(&mut self, event: ProbeEvent) {
        self.sites.entry(event.site).or_default().bump(event.kind);
    }
}

impl TelemetrySink for &mut SiteProbe {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn emit(&mut self, event: ProbeEvent) {
        <SiteProbe as TelemetrySink>::emit(self, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled() {
        let mut sink = NoopSink;
        assert!(!sink.enabled());
        sink.emit(ProbeEvent {
            site: 1,
            kind: ProbeKind::Hit,
        });
    }

    #[test]
    fn collected_probe_is_enabled_and_keeps_its_tallies() {
        let site = SiteCounters {
            hits: 3,
            taken: 3,
            ..SiteCounters::default()
        };
        let mut probe: SiteProbe = [(7, site)].into_iter().collect();
        assert!(probe.enabled());
        assert_eq!(probe.sites()[&7], site);
        probe.emit(ProbeEvent {
            site: 7,
            kind: ProbeKind::Miss,
        });
        assert_eq!(probe.sites()[&7].misses, 1);
    }

    #[test]
    fn probe_tallies_per_site() {
        let mut probe = SiteProbe::default();
        for kind in [
            ProbeKind::Hit,
            ProbeKind::Hit,
            ProbeKind::Miss,
            ProbeKind::Taken,
        ] {
            probe.emit(ProbeEvent { site: 4, kind });
        }
        probe.emit(ProbeEvent {
            site: 8,
            kind: ProbeKind::Mispredict,
        });
        let c = probe.sites()[&4];
        assert_eq!((c.hits, c.misses, c.taken), (2, 1, 1));
        assert_eq!(probe.total(ProbeKind::Hit), 2);
        assert_eq!(probe.total(ProbeKind::Mispredict), 1);
    }

    #[test]
    fn top_mispredicted_sorts_and_truncates() {
        let mut probe = SiteProbe::default();
        for (site, n) in [(10u32, 3u64), (20, 7), (30, 7), (40, 1)] {
            for _ in 0..n {
                probe.emit(ProbeEvent {
                    site,
                    kind: ProbeKind::Mispredict,
                });
            }
        }
        let top = probe.top_mispredicted(3);
        assert_eq!(
            top.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            [20, 30, 10]
        );
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = SiteProbe::default();
        let mut b = SiteProbe::default();
        a.emit(ProbeEvent {
            site: 1,
            kind: ProbeKind::Hit,
        });
        b.emit(ProbeEvent {
            site: 1,
            kind: ProbeKind::Hit,
        });
        b.emit(ProbeEvent {
            site: 2,
            kind: ProbeKind::Evict,
        });
        a.merge(&b);
        assert_eq!(a.sites()[&1].hits, 2);
        assert_eq!(a.sites()[&2].evicts, 1);
    }

    #[test]
    fn json_summary_shape() {
        let mut probe = SiteProbe::default();
        probe.emit(ProbeEvent {
            site: 5,
            kind: ProbeKind::Mispredict,
        });
        probe.emit(ProbeEvent {
            site: 5,
            kind: ProbeKind::Taken,
        });
        let v = probe.to_json_value(10);
        assert_eq!(v.get("sites").and_then(JsonValue::as_int), Some(1));
        assert_eq!(v.get("mispredicts").and_then(JsonValue::as_int), Some(1));
        let top = v
            .get("top_mispredicted")
            .and_then(JsonValue::as_arr)
            .unwrap();
        assert_eq!(top[0].get("site").and_then(JsonValue::as_int), Some(5));
        assert_eq!(
            top[0].get("executions").and_then(JsonValue::as_int),
            Some(1)
        );
    }
}
