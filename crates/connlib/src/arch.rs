//! Connectivity architectures: channels assigned to component instances.

use crate::component::{ConnComponent, ConnComponentKind};
use std::error::Error;
use std::fmt;

/// Index of a communication channel within a
/// [`ConnectivityArchitecture`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(usize);

impl ChannelId {
    /// Creates an id from a raw index.
    pub const fn new(index: usize) -> Self {
        ChannelId(index)
    }

    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Index of a link (component instance) within a
/// [`ConnectivityArchitecture`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(usize);

mce_obs::json_codec! { struct LinkId(usize) }

impl LinkId {
    /// Creates an id from a raw index.
    pub const fn new(index: usize) -> Self {
        LinkId(index)
    }

    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// A communication channel between two endpoints of the memory system
/// (CPU↔module or module↔DRAM). Channels are *what must be connected*;
/// links are *what connects them*.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Channel {
    /// Human-readable endpoint description, e.g. `"CPU<->L1"`.
    pub name: String,
    /// True if the channel crosses the chip boundary (must be carried by an
    /// off-chip-capable component).
    pub off_chip: bool,
}

mce_obs::json_codec! { struct Channel { name, off_chip } }

impl Channel {
    /// Creates an on-chip channel.
    pub fn on_chip(name: impl Into<String>) -> Self {
        Channel {
            name: name.into(),
            off_chip: false,
        }
    }

    /// Creates an off-chip channel.
    pub fn off_chip(name: impl Into<String>) -> Self {
        Channel {
            name: name.into(),
            off_chip: true,
        }
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            self.name,
            if self.off_chip { " (off-chip)" } else { "" }
        )
    }
}

/// A component instance carrying one or more channels.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnLink {
    name: String,
    component: ConnComponent,
}

mce_obs::json_codec! { struct ConnLink { name, component } }

impl ConnLink {
    /// Creates a named link backed by `component`.
    pub fn new(name: impl Into<String>, component: ConnComponent) -> Self {
        ConnLink {
            name: name.into(),
            component,
        }
    }

    /// The instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The backing component.
    pub const fn component(&self) -> &ConnComponent {
        &self.component
    }
}

impl fmt::Display for ConnLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.component)
    }
}

/// Validation failure for a connectivity architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnArchError {
    /// A channel has no link assigned.
    UnassignedChannel(ChannelId),
    /// An assignment references a link that does not exist.
    BadLinkId(LinkId),
    /// An off-chip channel was assigned to an on-chip-only component (or
    /// vice versa).
    BoundaryMismatch {
        /// The offending channel.
        channel: ChannelId,
        /// The link it was assigned to.
        link: LinkId,
    },
    /// A link carries more channels than its component supports.
    TooManyPorts {
        /// The overloaded link.
        link: LinkId,
        /// Channels assigned.
        assigned: u32,
        /// The component's port limit.
        limit: u32,
    },
}

impl fmt::Display for ConnArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnArchError::UnassignedChannel(ch) => write!(f, "channel {ch} has no link"),
            ConnArchError::BadLinkId(l) => write!(f, "assignment references unknown {l}"),
            ConnArchError::BoundaryMismatch { channel, link } => {
                write!(f, "chip-boundary mismatch: {channel} on {link}")
            }
            ConnArchError::TooManyPorts {
                link,
                assigned,
                limit,
            } => {
                write!(f, "{link} carries {assigned} channels, limit {limit}")
            }
        }
    }
}

impl Error for ConnArchError {}

/// A connectivity architecture: the set of communication channels of a
/// memory architecture, the component instances (links) chosen from the
/// library, and the channel→link assignment.
///
/// ```
/// use mce_connlib::{Channel, ConnComponent, ConnComponentKind, ConnectivityArchitecture};
///
/// let mut arch = ConnectivityArchitecture::new(vec![
///     Channel::on_chip("CPU<->L1"),
///     Channel::on_chip("CPU<->sbuf"),
///     Channel::off_chip("L1<->DRAM"),
/// ]);
/// let ahb = arch.add_link("ahb0", ConnComponent::new(ConnComponentKind::AmbaAhb));
/// let off = arch.add_link("ext0", ConnComponent::new(ConnComponentKind::OffChipBus));
/// arch.assign(mce_connlib::ChannelId::new(0), ahb);
/// arch.assign(mce_connlib::ChannelId::new(1), ahb);
/// arch.assign(mce_connlib::ChannelId::new(2), off);
/// assert!(arch.validate().is_ok());
/// assert!(arch.gate_cost() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectivityArchitecture {
    channels: Vec<Channel>,
    links: Vec<ConnLink>,
    assignment: Vec<Option<LinkId>>,
}

mce_obs::json_codec! { struct ConnectivityArchitecture { channels, links, assignment } }

impl ConnectivityArchitecture {
    /// Creates an architecture over the given channels with no links yet.
    pub fn new(channels: Vec<Channel>) -> Self {
        let n = channels.len();
        ConnectivityArchitecture {
            channels,
            links: Vec::new(),
            assignment: vec![None; n],
        }
    }

    /// Adds a component instance and returns its id.
    pub fn add_link(&mut self, name: impl Into<String>, component: ConnComponent) -> LinkId {
        self.links.push(ConnLink::new(name, component));
        LinkId::new(self.links.len() - 1)
    }

    /// Assigns `channel` to be carried by `link`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn assign(&mut self, channel: ChannelId, link: LinkId) {
        self.assignment[channel.index()] = Some(link);
    }

    /// The channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The links.
    pub fn links(&self) -> &[ConnLink] {
        &self.links
    }

    /// The link carrying `channel`, if assigned.
    pub fn link_of(&self, channel: ChannelId) -> Option<LinkId> {
        self.assignment.get(channel.index()).copied().flatten()
    }

    /// Number of channels assigned to `link`.
    pub fn ports(&self, link: LinkId) -> u32 {
        self.assignment.iter().filter(|a| **a == Some(link)).count() as u32
    }

    /// Checks assignment completeness, chip-boundary compatibility and port
    /// limits.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConnArchError`] found.
    pub fn validate(&self) -> Result<(), ConnArchError> {
        for (i, assigned) in self.assignment.iter().enumerate() {
            let ch = ChannelId::new(i);
            let link = assigned.ok_or(ConnArchError::UnassignedChannel(ch))?;
            let l = self
                .links
                .get(link.index())
                .ok_or(ConnArchError::BadLinkId(link))?;
            if self.channels[i].off_chip != l.component().params().off_chip {
                return Err(ConnArchError::BoundaryMismatch { channel: ch, link });
            }
        }
        for (j, l) in self.links.iter().enumerate() {
            let link = LinkId::new(j);
            let assigned = self.ports(link);
            let limit = l.component().params().max_ports;
            if assigned > limit {
                return Err(ConnArchError::TooManyPorts {
                    link,
                    assigned,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Total gate cost of all links (controllers + wires).
    pub fn gate_cost(&self) -> u64 {
        self.links
            .iter()
            .enumerate()
            .map(|(j, l)| l.component().gate_cost(self.ports(LinkId::new(j))))
            .sum()
    }

    /// Short composition string, e.g. `"AHB(2ch) + dedicated(1ch) +
    /// off-chip bus(1ch)"`. Links carrying no channel are omitted.
    pub fn describe(&self) -> String {
        self.links
            .iter()
            .enumerate()
            .filter(|(j, _)| self.ports(LinkId::new(*j)) > 0)
            .map(|(j, l)| {
                let c = l.component();
                // Off-chip variants differ only by width; make it visible.
                let width = if c.params().off_chip {
                    format!("/{}b", c.params().width_bytes * 8)
                } else {
                    String::new()
                };
                format!("{}{}({}ch)", c.kind(), width, self.ports(LinkId::new(j)))
            })
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// The kinds used by at least one channel, deduplicated in link order.
    pub fn kinds_used(&self) -> Vec<ConnComponentKind> {
        let mut kinds = Vec::new();
        for (j, l) in self.links.iter().enumerate() {
            if self.ports(LinkId::new(j)) > 0 && !kinds.contains(&l.component().kind()) {
                kinds.push(l.component().kind());
            }
        }
        kinds
    }
}

impl fmt::Display for ConnectivityArchitecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_channel_arch() -> ConnectivityArchitecture {
        ConnectivityArchitecture::new(vec![
            Channel::on_chip("CPU<->L1"),
            Channel::on_chip("CPU<->dma"),
            Channel::off_chip("L1<->DRAM"),
        ])
    }

    #[test]
    fn valid_assignment_passes() {
        let mut a = three_channel_arch();
        let bus = a.add_link("ahb", ConnComponent::new(ConnComponentKind::AmbaAhb));
        let ext = a.add_link("ext", ConnComponent::new(ConnComponentKind::OffChipBus));
        a.assign(ChannelId::new(0), bus);
        a.assign(ChannelId::new(1), bus);
        a.assign(ChannelId::new(2), ext);
        assert!(a.validate().is_ok());
        assert_eq!(a.ports(bus), 2);
        assert_eq!(a.ports(ext), 1);
    }

    #[test]
    fn unassigned_channel_detected() {
        let mut a = three_channel_arch();
        let bus = a.add_link("ahb", ConnComponent::new(ConnComponentKind::AmbaAhb));
        a.assign(ChannelId::new(0), bus);
        assert_eq!(
            a.validate(),
            Err(ConnArchError::UnassignedChannel(ChannelId::new(1)))
        );
    }

    #[test]
    fn off_chip_channel_needs_off_chip_link() {
        let mut a = three_channel_arch();
        let bus = a.add_link("ahb", ConnComponent::new(ConnComponentKind::AmbaAhb));
        a.assign(ChannelId::new(0), bus);
        a.assign(ChannelId::new(1), bus);
        a.assign(ChannelId::new(2), bus);
        assert!(matches!(
            a.validate(),
            Err(ConnArchError::BoundaryMismatch { .. })
        ));
    }

    #[test]
    fn on_chip_channel_rejects_off_chip_link() {
        let mut a = three_channel_arch();
        let ext = a.add_link("ext", ConnComponent::new(ConnComponentKind::OffChipBus));
        a.assign(ChannelId::new(0), ext);
        a.assign(ChannelId::new(1), ext);
        a.assign(ChannelId::new(2), ext);
        assert!(matches!(
            a.validate(),
            Err(ConnArchError::BoundaryMismatch { .. })
        ));
    }

    #[test]
    fn dedicated_port_limit_enforced() {
        let mut a = three_channel_arch();
        let ded = a.add_link("d0", ConnComponent::new(ConnComponentKind::Dedicated));
        let ext = a.add_link("ext", ConnComponent::new(ConnComponentKind::OffChipBus));
        a.assign(ChannelId::new(0), ded);
        a.assign(ChannelId::new(1), ded); // over the 1-port limit
        a.assign(ChannelId::new(2), ext);
        assert!(matches!(
            a.validate(),
            Err(ConnArchError::TooManyPorts { .. })
        ));
    }

    #[test]
    fn dangling_link_detected() {
        let mut a = three_channel_arch();
        a.assign(ChannelId::new(0), LinkId::new(5));
        assert_eq!(a.validate(), Err(ConnArchError::BadLinkId(LinkId::new(5))));
    }

    #[test]
    fn cost_counts_only_real_ports() {
        let mut a = three_channel_arch();
        let bus = a.add_link("ahb", ConnComponent::new(ConnComponentKind::AmbaAhb));
        let ext = a.add_link("ext", ConnComponent::new(ConnComponentKind::OffChipBus));
        a.assign(ChannelId::new(0), bus);
        a.assign(ChannelId::new(1), bus);
        a.assign(ChannelId::new(2), ext);
        let expected = ConnComponent::new(ConnComponentKind::AmbaAhb).gate_cost(2)
            + ConnComponent::new(ConnComponentKind::OffChipBus).gate_cost(1);
        assert_eq!(a.gate_cost(), expected);
    }

    #[test]
    fn describe_skips_unused_links() {
        let mut a = three_channel_arch();
        let bus = a.add_link("ahb", ConnComponent::new(ConnComponentKind::AmbaAhb));
        let _unused = a.add_link("apb", ConnComponent::new(ConnComponentKind::AmbaApb));
        let ext = a.add_link("ext", ConnComponent::new(ConnComponentKind::OffChipBus));
        a.assign(ChannelId::new(0), bus);
        a.assign(ChannelId::new(1), bus);
        a.assign(ChannelId::new(2), ext);
        let d = a.describe();
        assert!(d.contains("AHB(2ch)"), "{d}");
        assert!(!d.contains("APB"), "{d}");
    }

    #[test]
    fn kinds_used_deduplicates() {
        let mut a =
            ConnectivityArchitecture::new(vec![Channel::on_chip("a"), Channel::on_chip("b")]);
        let m1 = a.add_link("m1", ConnComponent::new(ConnComponentKind::Mux));
        let m2 = a.add_link("m2", ConnComponent::new(ConnComponentKind::Mux));
        a.assign(ChannelId::new(0), m1);
        a.assign(ChannelId::new(1), m2);
        assert_eq!(a.kinds_used(), vec![ConnComponentKind::Mux]);
    }

    #[test]
    fn error_display_nonempty() {
        let errs = [
            ConnArchError::UnassignedChannel(ChannelId::new(0)),
            ConnArchError::BadLinkId(LinkId::new(1)),
            ConnArchError::BoundaryMismatch {
                channel: ChannelId::new(0),
                link: LinkId::new(0),
            },
            ConnArchError::TooManyPorts {
                link: LinkId::new(0),
                assigned: 3,
                limit: 1,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
