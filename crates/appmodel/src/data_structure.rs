//! Application data-structure descriptors.

use crate::pattern::AccessPattern;
use std::fmt;

/// Index of a data structure within its [`Workload`](crate::Workload).
///
/// ```
/// use mce_appmodel::DsId;
/// assert_eq!(DsId::new(2).index(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DsId(usize);

impl DsId {
    /// Creates an id from a raw index.
    pub const fn new(index: usize) -> Self {
        DsId(index)
    }

    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for DsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ds{}", self.0)
    }
}

/// A modelled application data structure.
///
/// Workloads are composed of these: each one owns a contiguous footprint in
/// the address space, exhibits one [`AccessPattern`], and contributes a share
/// of the dynamic access stream proportional to its `hotness` weight.
///
/// Construct via [`DataStructure::new`] and refine with the builder-style
/// `with_*` methods:
///
/// ```
/// use mce_appmodel::{AccessPattern, DataStructure};
/// let ds = DataStructure::new("hash_table", 64 * 1024, 8, AccessPattern::SelfIndirect)
///     .with_hotness(3.0)
///     .with_write_fraction(0.25);
/// assert_eq!(ds.name(), "hash_table");
/// assert_eq!(ds.footprint(), 64 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DataStructure {
    name: String,
    footprint: u64,
    element_size: u64,
    pattern: AccessPattern,
    hotness: f64,
    write_fraction: f64,
}

mce_obs::json_codec! {
    struct DataStructure { name, footprint, element_size, pattern, hotness, write_fraction }
}

impl DataStructure {
    /// Creates a data structure with hotness 1.0 and a 20 % write mix.
    ///
    /// # Panics
    ///
    /// Panics if `footprint` or `element_size` is zero, or if
    /// `element_size > footprint`.
    pub fn new(
        name: impl Into<String>,
        footprint: u64,
        element_size: u64,
        pattern: AccessPattern,
    ) -> Self {
        DataStructure {
            name: name.into(),
            footprint,
            element_size,
            pattern,
            hotness: 1.0,
            write_fraction: 0.2,
        }
        .checked()
    }

    /// Sets the relative share of dynamic accesses this structure receives.
    ///
    /// # Panics
    ///
    /// Panics if `hotness` is not finite and positive.
    pub fn with_hotness(mut self, hotness: f64) -> Self {
        self.hotness = hotness;
        self.checked()
    }

    /// Sets the fraction of accesses that are writes, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn with_write_fraction(mut self, fraction: f64) -> Self {
        self.write_fraction = fraction;
        self.checked()
    }

    /// The structure's name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Footprint in bytes.
    pub const fn footprint(&self) -> u64 {
        self.footprint
    }

    /// Element size in bytes (the access granularity).
    pub const fn element_size(&self) -> u64 {
        self.element_size
    }

    /// The access pattern.
    pub const fn pattern(&self) -> AccessPattern {
        self.pattern
    }

    /// Relative dynamic-access weight.
    pub const fn hotness(&self) -> f64 {
        self.hotness
    }

    /// Fraction of accesses that are writes.
    pub const fn write_fraction(&self) -> f64 {
        self.write_fraction
    }

    /// Checks every invariant the constructors assert: a non-empty
    /// footprint holding at least one non-empty element, a positive
    /// hotness and a write fraction in `[0, 1]`. Deserialized values
    /// bypass the constructors, so workload validation re-runs it.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        if self.footprint == 0 {
            Err("footprint must be non-zero")
        } else if self.element_size == 0 {
            Err("element size must be non-zero")
        } else if self.element_size > self.footprint {
            Err("element larger than footprint")
        } else if !(self.hotness.is_finite() && self.hotness > 0.0) {
            Err("hotness must be positive")
        } else if !(0.0..=1.0).contains(&self.write_fraction) {
            Err("write fraction must be in [0,1]")
        } else {
            Ok(())
        }
    }

    /// `self`, or a panic naming the first violated invariant.
    fn checked(self) -> Self {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        self
    }
}

impl fmt::Display for DataStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} B, {} B/elem, {}, hot={}, wr={:.0}%)",
            self.name,
            self.footprint,
            self.element_size,
            self.pattern,
            self.hotness,
            self.write_fraction * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let ds = DataStructure::new("a", 1024, 4, AccessPattern::Random);
        assert_eq!(ds.hotness(), 1.0);
        assert_eq!(ds.write_fraction(), 0.2);
    }

    #[test]
    fn builder_overrides() {
        let ds = DataStructure::new("a", 1024, 4, AccessPattern::Random)
            .with_hotness(5.5)
            .with_write_fraction(0.0);
        assert_eq!(ds.hotness(), 5.5);
        assert_eq!(ds.write_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "element larger")]
    fn element_bigger_than_footprint_rejected() {
        let _ = DataStructure::new("a", 4, 8, AccessPattern::Random);
    }

    #[test]
    #[should_panic(expected = "hotness")]
    fn non_positive_hotness_rejected() {
        let _ = DataStructure::new("a", 8, 8, AccessPattern::Random).with_hotness(0.0);
    }

    #[test]
    #[should_panic(expected = "write fraction")]
    fn bad_write_fraction_rejected() {
        let _ = DataStructure::new("a", 8, 8, AccessPattern::Random).with_write_fraction(1.5);
    }

    #[test]
    fn ds_id_display() {
        assert_eq!(DsId::new(7).to_string(), "ds7");
    }
}
