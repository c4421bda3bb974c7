//! Exploration scale presets.
//!
//! Every stage configuration in the workspace (`ApexConfig`,
//! `ConexConfig`, the bench experiment scales, the `mce` CLI's `--preset`
//! flag) offers the same two operating points, so the choice is one shared
//! enum instead of per-type `fast()` / `paper()` constructor pairs:
//!
//! * [`Preset::Fast`] — reduced traces and candidate caps; seconds per
//!   run, for tests and smoke checks.
//! * [`Preset::Paper`] — the configuration reproducing the paper's
//!   experiments.

use std::fmt;
use std::str::FromStr;

/// The two operating points every exploration configuration offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// Reduced traces and candidate caps — seconds per run.
    Fast,
    /// The full experiment configuration of the paper.
    Paper,
}

impl fmt::Display for Preset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Preset::Fast => "fast",
            Preset::Paper => "paper",
        })
    }
}

impl FromStr for Preset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fast" => Ok(Preset::Fast),
            "paper" => Ok(Preset::Paper),
            other => Err(format!("unknown preset `{other}` (fast|paper)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_presets() {
        assert_eq!("fast".parse::<Preset>().unwrap(), Preset::Fast);
        assert_eq!("paper".parse::<Preset>().unwrap(), Preset::Paper);
    }

    #[test]
    fn rejects_unknown_preset() {
        let err = "medium".parse::<Preset>().unwrap_err();
        assert!(err.contains("medium"), "{err}");
        assert!(err.contains("fast|paper"), "{err}");
    }

    #[test]
    fn display_round_trips() {
        for p in [Preset::Fast, Preset::Paper] {
            assert_eq!(p.to_string().parse::<Preset>().unwrap(), p);
        }
    }
}
