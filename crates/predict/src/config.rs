//! The one statement of which predictor configurations the engines can
//! build: [`SbtbConfig::validate`](crate::SbtbConfig::validate),
//! [`MlBtbConfig::validate`](crate::MlBtbConfig::validate) (which a
//! [`CbtbConfig`](crate::CbtbConfig) reaches through its one-level
//! conversion) and [`validate_two_level`](crate::validate_two_level).
//! Every constructor panics through them, and the sweep server maps
//! their [`ConfigError`] onto a 400, so a rule is written once.

use std::fmt;

/// A configuration no engine can honour: the offending field and the
/// rule it breaks. Its text is both the constructors' panic message and
/// the sweep server's 400 body.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `entries` is 0.
    Entries {
        /// The hierarchy level (0 = L1), or `None` for a single buffer.
        level: Option<usize>,
    },
    /// `ways` is 0 or exceeds `entries`.
    Ways {
        /// The hierarchy level (0 = L1), or `None` for a single buffer.
        level: Option<usize>,
    },
    /// `entries / ways` is not a whole power of two.
    SetCount {
        /// The hierarchy level (0 = L1), or `None` for a single buffer.
        level: Option<usize>,
    },
    /// A hierarchy with no levels.
    NoLevels,
    /// Counter width outside 1..=7 bits.
    CounterBits,
    /// Threshold outside 1..=counter max.
    Threshold,
    /// Pattern-table size outside 1..=24 bits.
    TableBits,
    /// More history bits than table bits.
    HistoryBits,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix =
            |level: &Option<usize>| level.map_or(String::new(), |i| format!("l{}_", i + 1));
        match self {
            ConfigError::Entries { level } => {
                write!(f, "`{}entries` must be at least 1", prefix(level))
            }
            ConfigError::Ways { level } => {
                write!(f, "`{}ways` must be in 1..=entries", prefix(level))
            }
            ConfigError::SetCount { level } => {
                let p = prefix(level);
                write!(
                    f,
                    "`{p}entries` / `{p}ways` must give a set count that is a power of two"
                )
            }
            ConfigError::NoLevels => f.write_str("at least one level required"),
            ConfigError::CounterBits => f.write_str("`counter_bits` must be in 1..=7"),
            ConfigError::Threshold => f.write_str("`threshold` must be in 1..=counter max"),
            ConfigError::TableBits => f.write_str("`table_bits` must be in 1..=24"),
            ConfigError::HistoryBits => f.write_str("`history_bits` must be in 0..=table_bits"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The buffer geometry [`AssocBuffer`](crate::AssocBuffer) can hold:
/// `ways` in 1..=`entries`, splitting `entries` into a power-of-two
/// number of sets.
pub(crate) fn validate_geometry(
    level: Option<usize>,
    entries: usize,
    ways: usize,
) -> Result<(), ConfigError> {
    if entries == 0 {
        Err(ConfigError::Entries { level })
    } else if ways == 0 || ways > entries {
        Err(ConfigError::Ways { level })
    } else if !entries.is_multiple_of(ways) || !(entries / ways).is_power_of_two() {
        Err(ConfigError::SetCount { level })
    } else {
        Ok(())
    }
}

/// Panic with the error's text: how every constructor enforces its
/// configuration's `validate`.
pub(crate) fn assert_valid(result: Result<(), ConfigError>) {
    if let Err(e) = result {
        panic!("{e}");
    }
}
