//! Per-branch-site BTB telemetry.
//!
//! A [`SiteProbe`] is a plain per-site table of [`SiteCounters`] —
//! hits, misses, evictions, aliases, outcomes and mispredictions —
//! built by a scorer that tallies per site itself (the experiment's
//! natural pass does, per pc) and rendered into run manifests.

use std::collections::HashMap;

use crate::json::JsonValue;

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
}

/// Per-site [`SiteCounters`], keyed by branch site (instruction
/// address); collect one from `(site, counters)` pairs.
#[derive(Clone, Debug)]
pub struct SiteProbe {
    sites: HashMap<u32, SiteCounters>,
}

impl SiteProbe {
    /// Per-site tallies collected so far.
    #[must_use]
    pub fn sites(&self) -> &HashMap<u32, SiteCounters> {
        &self.sites
    }

    /// Every counter summed across all sites.
    #[must_use]
    pub fn totals(&self) -> SiteCounters {
        self.sites
            .values()
            .fold(SiteCounters::default(), |t, c| SiteCounters {
                hits: t.hits + c.hits,
                misses: t.misses + c.misses,
                evicts: t.evicts + c.evicts,
                aliases: t.aliases + c.aliases,
                taken: t.taken + c.taken,
                not_taken: t.not_taken + c.not_taken,
                mispredicts: t.mispredicts + c.mispredicts,
            })
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
        let totals = self.totals();
        JsonValue::obj(vec![
            ("sites", JsonValue::from(self.sites.len())),
            ("hits", totals.hits.into()),
            ("misses", totals.misses.into()),
            ("evicts", totals.evicts.into()),
            ("aliases", totals.aliases.into()),
            ("mispredicts", totals.mispredicts.into()),
            ("top_mispredicted", JsonValue::Arr(top)),
        ])
    }
}

/// A probe holding the given per-site tallies.
impl FromIterator<(u32, SiteCounters)> for SiteProbe {
    fn from_iter<I: IntoIterator<Item = (u32, SiteCounters)>>(iter: I) -> Self {
        SiteProbe {
            sites: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collected_probe_keeps_its_tallies() {
        let site = SiteCounters {
            hits: 3,
            taken: 3,
            ..SiteCounters::default()
        };
        let probe: SiteProbe = [(7, site)].into_iter().collect();
        assert_eq!(probe.sites().len(), 1);
        assert_eq!(probe.sites()[&7], site);
    }

    #[test]
    fn probe_tallies_per_site() {
        let probe: SiteProbe = [
            (
                4,
                SiteCounters {
                    hits: 2,
                    misses: 1,
                    taken: 1,
                    ..SiteCounters::default()
                },
            ),
            (
                8,
                SiteCounters {
                    hits: 1,
                    evicts: 2,
                    mispredicts: 1,
                    ..SiteCounters::default()
                },
            ),
        ]
        .into_iter()
        .collect();
        let c = probe.sites()[&4];
        assert_eq!((c.hits, c.misses, c.taken), (2, 1, 1));
        let totals = probe.totals();
        assert_eq!((totals.hits, totals.misses), (3, 1));
        assert_eq!((totals.evicts, totals.mispredicts), (2, 1));
        assert_eq!(totals.executions(), 1);
    }

    #[test]
    fn top_mispredicted_sorts_and_truncates() {
        let probe: SiteProbe = [(10u32, 3u64), (20, 7), (30, 7), (40, 1)]
            .into_iter()
            .map(|(site, mispredicts)| {
                let c = SiteCounters {
                    mispredicts,
                    ..SiteCounters::default()
                };
                (site, c)
            })
            .collect();
        let top = probe.top_mispredicted(3);
        assert_eq!(
            top.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            [20, 30, 10]
        );
    }

    #[test]
    fn json_summary_shape() {
        let site = SiteCounters {
            taken: 1,
            mispredicts: 1,
            ..SiteCounters::default()
        };
        let probe: SiteProbe = [(5, site)].into_iter().collect();
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
