//! Strongly-typed identifiers shared across all simulator crates.
//!
//! Each identifier is a zero-cost newtype. Using distinct types for cycles,
//! cores, threads, memory addresses and locks prevents whole classes of
//! index-confusion bugs in a simulator where almost everything is "a small
//! integer".

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A simulated clock cycle count.
///
/// `Cycle` is an absolute point on the global simulation clock (cycle 0 is
/// the start of simulation). Durations are represented as plain `u64`s and
/// combined with `Cycle` through [`Add`]/[`Sub`].
///
/// # Example
///
/// ```
/// use inpg_sim::Cycle;
/// let start = Cycle::new(100);
/// let end = start + 28;
/// assert_eq!(end.as_u64(), 128);
/// assert_eq!(end - start, 28);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The start of simulation.
    pub const ZERO: Cycle = Cycle(0);

    /// A cycle no simulation reaches: "never" in due-time bookkeeping.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Creates a cycle from a raw count.
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// The raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the number of cycles from `earlier` to `self`, saturating
    /// at zero if `earlier` is actually later.
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Advances the clock by one cycle, returning the new value.
    #[must_use]
    pub fn next(self) -> Cycle {
        Cycle(self.0 + 1)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    /// Number of cycles between two clock points.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(rhs.0 <= self.0, "cycle subtraction underflow");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(raw: u64) -> Self {
        Cycle(raw)
    }
}

/// Identifies one core (and its tile: router, NI, private L1, L2 bank).
///
/// Cores are numbered row-major over the mesh: core `y * width + x` sits at
/// mesh coordinate `(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(usize);

impl CoreId {
    /// Creates a core id from a raw index.
    pub const fn new(index: usize) -> Self {
        CoreId(index)
    }

    /// The raw index, suitable for indexing per-core vectors.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core {}", self.0)
    }
}

impl From<usize> for CoreId {
    fn from(index: usize) -> Self {
        CoreId(index)
    }
}

/// Identifies one software thread.
///
/// The paper runs one thread per core, but the types stay distinct because
/// the queue spin-lock's sleep phase conceptually deschedules a *thread*
/// while the *core* remains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(usize);

impl ThreadId {
    /// Creates a thread id from a raw index.
    pub const fn new(index: usize) -> Self {
        ThreadId(index)
    }

    /// The raw index, suitable for indexing per-thread vectors.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread {}", self.0)
    }
}

impl From<usize> for ThreadId {
    fn from(index: usize) -> Self {
        ThreadId(index)
    }
}

/// A physical byte address in the simulated memory.
///
/// The cache hierarchy works on 128-byte blocks (Table 1 of the paper);
/// [`Addr::block`] truncates to the containing block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

/// Cache block size in bytes (Table 1: 128 B block size).
pub const BLOCK_BYTES: u64 = 128;

impl Addr {
    /// Creates an address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// The raw byte address.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The address of the containing 128-byte cache block.
    pub const fn block(self) -> Addr {
        Addr(self.0 & !(BLOCK_BYTES - 1))
    }

    /// The block index (block address divided by the block size), used for
    /// home-node interleaving.
    pub const fn block_index(self) -> u64 {
        self.0 / BLOCK_BYTES
    }

    /// Whether this address is block-aligned.
    pub const fn is_block_aligned(self) -> bool {
        self.0.is_multiple_of(BLOCK_BYTES)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// Identifies one lock variable in a workload.
///
/// Lock ids are dense indices into the workload's lock table; the system
/// assigns each lock a block-aligned [`Addr`] at setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(usize);

impl LockId {
    /// Creates a lock id from a raw index.
    pub const fn new(index: usize) -> Self {
        LockId(index)
    }

    /// The raw index, suitable for indexing per-lock vectors.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock {}", self.0)
    }
}

impl From<usize> for LockId {
    fn from(index: usize) -> Self {
        LockId(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let c = Cycle::new(10);
        assert_eq!((c + 5).as_u64(), 15);
        assert_eq!((c + 5) - c, 5);
        assert_eq!(c.next().as_u64(), 11);
        let mut c2 = c;
        c2 += 3;
        assert_eq!(c2.as_u64(), 13);
    }

    #[test]
    fn cycle_saturating_since() {
        assert_eq!(Cycle::new(5).saturating_since(Cycle::new(9)), 0);
        assert_eq!(Cycle::new(9).saturating_since(Cycle::new(5)), 4);
    }

    #[test]
    fn addr_block_truncation() {
        let a = Addr::new(0x1234);
        assert_eq!(a.block().as_u64(), (0x1234 / BLOCK_BYTES) * BLOCK_BYTES);
        assert!(a.block().is_block_aligned());
        assert_eq!(a.block_index(), 0x1234 / 128);
    }

    #[test]
    fn addr_alignment() {
        assert!(Addr::new(0).is_block_aligned());
        assert!(Addr::new(128).is_block_aligned());
        assert!(!Addr::new(64).is_block_aligned());
    }

    #[test]
    fn ids_display() {
        assert_eq!(CoreId::new(7).to_string(), "core 7");
        assert_eq!(ThreadId::new(3).to_string(), "thread 3");
        assert_eq!(LockId::new(1).to_string(), "lock 1");
        assert_eq!(Cycle::new(42).to_string(), "cycle 42");
        assert_eq!(Addr::new(256).to_string(), "0x100");
    }

    #[test]
    fn ids_from_usize() {
        assert_eq!(CoreId::from(4).index(), 4);
        assert_eq!(ThreadId::from(4).index(), 4);
        assert_eq!(LockId::from(4).index(), 4);
    }
}
