//! WiFi bands and channels.
//!
//! The paper's experiments span 2.4 GHz (channels 1/11 on the Netgear
//! testbed) and dual-band 802.11ac hardware; the microwave-oven impairment
//! only touches the 2.4 GHz band, which is why the paper's Fig. 6 shows the
//! smallest cross-link gain for that impairment when no 5 GHz link is
//! available.

use serde::Serialize;
use std::fmt;

/// A WiFi frequency band.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum Band {
    /// The 2.4 GHz ISM band (channels 1–13, 20 MHz wide, 5 MHz spacing).
    Ghz2_4,
    /// The 5 GHz band (non-overlapping 20 MHz channels).
    Ghz5,
}

impl Band {
    /// Free-space path loss at 1 m reference distance, in dB.
    /// 2.4 GHz: ~40 dB; 5 GHz: ~46.4 dB (FSPL scales with f²).
    pub fn reference_loss_db(self) -> f64 {
        match self {
            Band::Ghz2_4 => 40.0,
            Band::Ghz5 => 46.4,
        }
    }
}

/// One WiFi channel: a band plus channel number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub struct Channel {
    /// The band the channel lives in.
    pub band: Band,
    /// 802.11 channel number (1–13 for 2.4 GHz; 36, 40, … for 5 GHz).
    pub number: u8,
}

impl Channel {
    /// Channel 1 in the 2.4 GHz band (one of the two testbed channels).
    pub const CH1: Channel = Channel { band: Band::Ghz2_4, number: 1 };
    /// Channel 6 in the 2.4 GHz band.
    pub const CH6: Channel = Channel { band: Band::Ghz2_4, number: 6 };
    /// Channel 11 in the 2.4 GHz band (the other testbed channel).
    pub const CH11: Channel = Channel { band: Band::Ghz2_4, number: 11 };
    /// Channel 36 in the 5 GHz band.
    pub const CH36: Channel = Channel { band: Band::Ghz5, number: 36 };
    /// Channel 149 in the 5 GHz band.
    pub const CH149: Channel = Channel { band: Band::Ghz5, number: 149 };

    /// Construct a 2.4 GHz channel. Panics outside 1..=13.
    pub fn ghz2_4(number: u8) -> Channel {
        assert!((1..=13).contains(&number), "2.4 GHz channel out of range: {number}");
        Channel { band: Band::Ghz2_4, number }
    }

    /// Construct a 5 GHz channel (UNII channel numbers).
    pub fn ghz5(number: u8) -> Channel {
        assert!(number >= 36, "5 GHz channel out of range: {number}");
        Channel { band: Band::Ghz5, number }
    }

    /// Center frequency in MHz.
    pub fn center_mhz(self) -> u32 {
        match self.band {
            Band::Ghz2_4 => 2407 + 5 * self.number as u32,
            Band::Ghz5 => 5000 + 5 * self.number as u32,
        }
    }

    /// Do two 20 MHz channels spectrally overlap? In 2.4 GHz, channels
    /// closer than 5 apart overlap; 5 GHz channels are laid out
    /// non-overlapping; different bands never overlap.
    pub fn overlaps(self, other: Channel) -> bool {
        if self.band != other.band {
            return false;
        }
        match self.band {
            Band::Ghz2_4 => self.number.abs_diff(other.number) < 5,
            Band::Ghz5 => self.number == other.number,
        }
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.band {
            Band::Ghz2_4 => write!(f, "ch{}(2.4GHz)", self.number),
            Band::Ghz5 => write!(f, "ch{}(5GHz)", self.number),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_frequencies() {
        assert_eq!(Channel::CH1.center_mhz(), 2412);
        assert_eq!(Channel::CH6.center_mhz(), 2437);
        assert_eq!(Channel::CH11.center_mhz(), 2462);
        assert_eq!(Channel::CH36.center_mhz(), 5180);
    }

    #[test]
    fn overlap_2ghz() {
        assert!(Channel::CH1.overlaps(Channel::ghz2_4(4)));
        assert!(!Channel::CH1.overlaps(Channel::CH6));
        assert!(!Channel::CH1.overlaps(Channel::CH11));
        assert!(!Channel::CH6.overlaps(Channel::CH11));
        assert!(Channel::CH6.overlaps(Channel::CH6));
    }

    #[test]
    fn overlap_5ghz_and_cross_band() {
        assert!(Channel::CH36.overlaps(Channel::CH36));
        assert!(!Channel::CH36.overlaps(Channel::ghz5(40)));
        assert!(!Channel::CH1.overlaps(Channel::CH36));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_2ghz_channel() {
        Channel::ghz2_4(14);
    }

    #[test]
    fn display() {
        assert_eq!(Channel::CH11.to_string(), "ch11(2.4GHz)");
        assert_eq!(Channel::CH36.to_string(), "ch36(5GHz)");
    }

    #[test]
    fn reference_loss_is_higher_at_5ghz() {
        assert!(Band::Ghz5.reference_loss_db() > Band::Ghz2_4.reference_loss_db());
    }
}
