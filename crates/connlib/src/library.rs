//! The connectivity IP library.

use crate::component::{ConnComponent, ConnComponentKind, ConnParams};
use mce_error::MceError;
use mce_obs::json;
use std::fmt;
use std::path::Path;

/// A library of connectivity components available to the exploration.
///
/// The default [`ConnectivityLibrary::amba`] library contains the six
/// component classes the paper lists; custom components (e.g. a wider AHB)
/// can be added with [`ConnectivityLibrary::add`].
///
/// ```
/// use mce_connlib::{ConnComponent, ConnComponentKind, ConnectivityLibrary};
///
/// let mut lib = ConnectivityLibrary::amba();
/// assert_eq!(lib.len(), 8);
///
/// // Add a custom 64-bit AHB.
/// let mut params = ConnComponentKind::AmbaAhb.params();
/// params.width_bytes = 8;
/// lib.add(ConnComponent::with_params(ConnComponentKind::AmbaAhb, params));
/// assert_eq!(lib.len(), 9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectivityLibrary {
    components: Vec<ConnComponent>,
}

mce_obs::json_codec! { struct ConnectivityLibrary { components } }

impl ConnectivityLibrary {
    /// An empty library.
    pub const fn new() -> Self {
        ConnectivityLibrary {
            components: Vec::new(),
        }
    }

    /// The default library: dedicated, MUX, APB, ASB, AHB on-chip, and
    /// three off-chip bus variants (narrow 8-bit, standard 16-bit, wide
    /// 32-bit — trading pad count and driver energy for fill bandwidth, the
    /// paper's "off-chip busses").
    pub fn amba() -> Self {
        let mut lib = Self::new();
        for kind in ConnComponentKind::ON_CHIP {
            lib.add(ConnComponent::new(kind));
        }
        let standard = ConnComponentKind::OffChipBus.params();
        let narrow = ConnParams {
            width_bytes: 1,
            base_gates: 5_500,
            energy_per_transfer_nj: 0.70,
            ..standard
        };
        let wide = ConnParams {
            width_bytes: 4,
            base_gates: 17_000,
            energy_per_transfer_nj: 1.30,
            ..standard
        };
        lib.add(ConnComponent::with_params(
            ConnComponentKind::OffChipBus,
            narrow,
        ));
        lib.add(ConnComponent::new(ConnComponentKind::OffChipBus));
        lib.add(ConnComponent::with_params(
            ConnComponentKind::OffChipBus,
            wide,
        ));
        lib
    }

    /// Adds a component.
    pub fn add(&mut self, component: ConnComponent) {
        self.components.push(component);
    }

    /// The first component of the given kind, if present.
    pub fn component(&self, kind: ConnComponentKind) -> Option<&ConnComponent> {
        self.components.iter().find(|c| c.kind() == kind)
    }

    /// All components.
    pub fn components(&self) -> &[ConnComponent] {
        &self.components
    }

    /// Iterator over the on-chip components.
    pub fn on_chip(&self) -> impl Iterator<Item = &ConnComponent> {
        self.components.iter().filter(|c| !c.params().off_chip)
    }

    /// Iterator over the off-chip-capable components.
    pub fn off_chip(&self) -> impl Iterator<Item = &ConnComponent> {
        self.components.iter().filter(|c| c.params().off_chip)
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True if the library holds no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Parses a library from its JSON form (the shape
    /// [`mce_obs::json::to_string`] writes) and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Json`] on malformed JSON and
    /// [`MceError::Library`] when the parsed library violates a structural
    /// invariant (see [`ConnectivityLibrary::validate`]).
    pub fn from_json(text: &str) -> Result<Self, MceError> {
        let lib: ConnectivityLibrary =
            json::from_str(text).map_err(|e| MceError::json("parsing connectivity library", e))?;
        lib.validate()?;
        Ok(lib)
    }

    /// Loads and validates a library from a JSON file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Io`] if the file cannot be read, plus the
    /// [`ConnectivityLibrary::from_json`] errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, MceError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            MceError::io(
                format!("reading connectivity library `{}`", path.display()),
                e,
            )
        })?;
        Self::from_json(&text)
    }

    /// Checks the structural invariants the exploration relies on: the
    /// library is non-empty, every component can serve at least one port,
    /// is at least a byte wide, needs at least one cycle per beat, and has
    /// finite non-negative energy coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`MceError::Library`] naming the first violated invariant.
    pub fn validate(&self) -> Result<(), MceError> {
        if self.is_empty() {
            return Err(MceError::library("library has no components"));
        }
        for (i, c) in self.components.iter().enumerate() {
            let p = c.params();
            let fail = |what: &str| {
                Err(MceError::library(format!(
                    "component {i} ({}): {what}",
                    c.kind()
                )))
            };
            if p.width_bytes == 0 {
                return fail("width_bytes must be at least 1");
            }
            if p.cycles_per_beat == 0 {
                return fail("cycles_per_beat must be at least 1");
            }
            if p.max_ports == 0 {
                return fail("max_ports must be at least 1");
            }
            if p.outstanding == 0 {
                return fail("outstanding must be at least 1");
            }
            if !(p.energy_per_transfer_nj.is_finite() && p.energy_per_transfer_nj >= 0.0) {
                return fail("energy_per_transfer_nj must be finite and non-negative");
            }
            if !(p.energy_per_byte_nj.is_finite() && p.energy_per_byte_nj >= 0.0) {
                return fail("energy_per_byte_nj must be finite and non-negative");
            }
        }
        Ok(())
    }
}

impl Default for ConnectivityLibrary {
    fn default() -> Self {
        Self::amba()
    }
}

impl fmt::Display for ConnectivityLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "connectivity library ({} components):", self.len())?;
        for c in &self.components {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_library_has_all_kinds() {
        let lib = ConnectivityLibrary::amba();
        for kind in ConnComponentKind::ON_CHIP {
            assert!(lib.component(kind).is_some(), "{kind} missing");
        }
        assert!(lib.component(ConnComponentKind::OffChipBus).is_some());
    }

    #[test]
    fn on_off_chip_partition() {
        let lib = ConnectivityLibrary::amba();
        assert_eq!(lib.on_chip().count(), 5);
        assert_eq!(lib.off_chip().count(), 3);
        assert_eq!(lib.on_chip().count() + lib.off_chip().count(), lib.len());
    }

    #[test]
    fn off_chip_widths_span_range() {
        let lib = ConnectivityLibrary::amba();
        let widths: Vec<u32> = lib.off_chip().map(|c| c.params().width_bytes).collect();
        assert!(widths.contains(&1));
        assert!(widths.contains(&2));
        assert!(widths.contains(&4));
    }

    #[test]
    fn empty_library() {
        let lib = ConnectivityLibrary::new();
        assert!(lib.is_empty());
        assert!(lib.component(ConnComponentKind::AmbaAhb).is_none());
    }

    #[test]
    fn default_trait_is_amba() {
        assert_eq!(ConnectivityLibrary::default(), ConnectivityLibrary::amba());
    }

    #[test]
    fn json_round_trip_validates() {
        let lib = ConnectivityLibrary::amba();
        let text = json::to_string(&lib);
        let back = ConnectivityLibrary::from_json(&text).unwrap();
        assert_eq!(lib, back);
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        let err = ConnectivityLibrary::from_json("{not json").unwrap_err();
        assert!(matches!(err, MceError::Json { .. }), "{err}");
    }

    #[test]
    fn empty_library_fails_validation() {
        let err = ConnectivityLibrary::from_json(r#"{"components":[]}"#).unwrap_err();
        assert!(matches!(err, MceError::Library { .. }), "{err}");
        assert!(err.to_string().contains("no components"), "{err}");
    }

    #[test]
    fn zero_width_component_rejected() {
        let mut lib = ConnectivityLibrary::new();
        let mut params = ConnComponentKind::AmbaAhb.params();
        params.width_bytes = 0;
        lib.add(ConnComponent::with_params(
            ConnComponentKind::AmbaAhb,
            params,
        ));
        let err = ConnectivityLibrary::from_json(&json::to_string(&lib)).unwrap_err();
        assert!(err.to_string().contains("width_bytes"), "{err}");
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = ConnectivityLibrary::load("/nonexistent/lib.json").unwrap_err();
        assert!(matches!(err, MceError::Io { .. }), "{err}");
    }
}
