//! Stable identifiers for simulated WiFi entities.

use serde::Serialize;
use std::fmt;

/// Identifies an access point (BSSID stand-in).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct ApId(pub u16);

/// Identifies a client device (one physical machine).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct ClientId(pub u16);

/// Identifies a virtual adapter on a client (DiversiFi creates several:
/// `DEF`, primary, secondary — each with its own MAC address and
/// association, per §5.2.2 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct AdapterId(pub u16);

/// Identifies an end-to-end flow (a stream, a TCP connection, …).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct FlowId(pub u32);

impl fmt::Display for ApId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ap:{}", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client:{}", self.0)
    }
}

impl fmt::Display for AdapterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "adapter:{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(ApId(3).to_string(), "ap:3");
        assert_eq!(ClientId(1).to_string(), "client:1");
        assert_eq!(AdapterId(2).to_string(), "adapter:2");
        assert_eq!(FlowId(9).to_string(), "flow:9");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ApId(1));
        set.insert(ApId(1));
        set.insert(ApId(2));
        assert_eq!(set.len(), 2);
        assert!(ApId(1) < ApId(2));
    }
}
