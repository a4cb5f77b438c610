//! Frame pointers.
//!
//! A DTA *frame* is the per-thread-instance input area managed by the
//! distributed scheduler and held in a processing element's local store
//! ("the frame memory is a local memory associated with each processing
//! element", paper §2). A frame pointer identifies both the owning PE and
//! the frame slot within that PE's frame region, so that `STORE`
//! instructions executed anywhere in the machine can be routed to the right
//! place.
//!
//! Frame pointers travel through ordinary 64-bit registers (a thread
//! receives the frame pointers of its consumers through its own frame), so
//! they have a canonical [`u64` encoding](FramePtr::encode).

use std::fmt;

/// A global frame identifier: owning PE + frame index within that PE.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FramePtr {
    /// Global index of the owning processing element.
    pub pe: u16,
    /// Frame slot index within the owning PE's frame region.
    pub index: u32,
}

/// Tag placed in the upper bits of an encoded frame pointer so that stray
/// integers are unlikely to decode as valid frames.
const TAG: u64 = 0xD7A0_0000_0000_0000;
const TAG_MASK: u64 = 0xFFFF_0000_0000_0000;

impl FramePtr {
    /// Creates a frame pointer.
    #[inline]
    pub const fn new(pe: u16, index: u32) -> Self {
        FramePtr { pe, index }
    }

    /// Encodes into the 64-bit register representation.
    #[inline]
    pub const fn encode(self) -> u64 {
        TAG | ((self.pe as u64) << 32) | self.index as u64
    }

    /// Decodes a register value, returning `None` if the tag does not
    /// match (i.e. the value is not a frame pointer).
    #[inline]
    pub const fn decode(raw: u64) -> Option<Self> {
        if raw & TAG_MASK != TAG {
            return None;
        }
        Some(FramePtr {
            pe: ((raw >> 32) & 0xFFFF) as u16,
            index: raw as u32,
        })
    }
}

impl fmt::Display for FramePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame(pe={}, idx={})", self.pe, self.index)
    }
}

impl fmt::Debug for FramePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for pe in [0u16, 1, 7, 255, u16::MAX] {
            for index in [0u32, 1, 1000, u32::MAX] {
                let fp = FramePtr::new(pe, index);
                assert_eq!(FramePtr::decode(fp.encode()), Some(fp));
            }
        }
    }

    #[test]
    fn reject_untagged_values() {
        assert_eq!(FramePtr::decode(0), None);
        assert_eq!(FramePtr::decode(42), None);
        assert_eq!(FramePtr::decode(u64::MAX), None);
    }

    #[test]
    fn encoded_values_differ_per_pe() {
        let a = FramePtr::new(0, 5).encode();
        let b = FramePtr::new(1, 5).encode();
        assert_ne!(a, b);
    }

    #[test]
    fn display() {
        assert_eq!(FramePtr::new(3, 9).to_string(), "frame(pe=3, idx=9)");
    }
}
