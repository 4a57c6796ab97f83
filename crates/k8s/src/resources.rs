//! Resource quantities: CPU (millicores) and memory (bytes).
//!
//! Mirrors the Kubernetes quantity model closely enough for LIDC: compute
//! requests carry `cpu` and `mem` requirements (the paper encodes them in
//! Interest names as `mem=4&cpu=6`), the scheduler fits requests against
//! node allocatable, and nothing may overcommit.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// CPU in millicores (as in Kubernetes: `1000m` = 1 core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cpu(pub u64);

impl Cpu {
    /// Whole cores.
    pub const fn cores(n: u64) -> Self {
        Cpu(n * 1000)
    }

    /// Millicores.
    pub const fn millis(n: u64) -> Self {
        Cpu(n)
    }

    /// Parse `2`, `2.5`, or `2500m`.
    pub fn parse(s: &str) -> Option<Cpu> {
        let s = s.trim();
        if let Some(m) = s.strip_suffix('m') {
            return m.parse::<u64>().ok().map(Cpu);
        }
        let cores: f64 = s.parse().ok()?;
        if !cores.is_finite() || cores < 0.0 {
            return None;
        }
        Some(Cpu((cores * 1000.0).round() as u64))
    }
}

impl fmt::Display for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1000) {
            write!(f, "{}", self.0 / 1000)
        } else {
            write!(f, "{}m", self.0)
        }
    }
}

/// Memory in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Memory(pub u64);

const KI: u64 = 1024;
const MI: u64 = 1024 * 1024;
const GI: u64 = 1024 * 1024 * 1024;

impl Memory {
    /// Gibibytes.
    pub const fn gib(n: u64) -> Self {
        Memory(n * GI)
    }

    /// Mebibytes.
    pub const fn mib(n: u64) -> Self {
        Memory(n * MI)
    }

    /// Bytes.
    pub const fn bytes(n: u64) -> Self {
        Memory(n)
    }

    /// Parse `4Gi`, `512Mi`, `1024Ki`, `4G` (decimal), or raw bytes. A bare
    /// number with no unit is taken as GiB when small (the paper writes
    /// "Memory (GB): 4"), bytes otherwise.
    pub fn parse(s: &str) -> Option<Memory> {
        let s = s.trim();
        let parse_num = |t: &str| t.trim().parse::<f64>().ok().filter(|v| *v >= 0.0);
        for (suffix, mult) in [
            ("Gi", GI as f64),
            ("Mi", MI as f64),
            ("Ki", KI as f64),
            ("G", 1e9),
            ("M", 1e6),
            ("K", 1e3),
        ] {
            if let Some(t) = s.strip_suffix(suffix) {
                return parse_num(t).map(|v| Memory((v * mult).round() as u64));
            }
        }
        let v = parse_num(s)?;
        // Heuristic per the paper's convention: small bare numbers are GB.
        if v <= 1024.0 {
            Some(Memory((v * GI as f64).round() as u64))
        } else {
            Some(Memory(v.round() as u64))
        }
    }
}

impl fmt::Display for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(GI) {
            write!(f, "{}Gi", self.0 / GI)
        } else if self.0.is_multiple_of(MI) {
            write!(f, "{}Mi", self.0 / MI)
        } else if self.0.is_multiple_of(KI) {
            write!(f, "{}Ki", self.0 / KI)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// A (cpu, memory) bundle: requests, allocatable, usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resources {
    /// CPU millicores.
    pub cpu: Cpu,
    /// Memory bytes.
    pub memory: Memory,
}

impl Resources {
    /// Zero resources.
    pub const ZERO: Resources = Resources {
        cpu: Cpu(0),
        memory: Memory(0),
    };

    /// Construct from cores and GiB (the paper's units).
    pub const fn new(cores: u64, mem_gib: u64) -> Self {
        Resources {
            cpu: Cpu::cores(cores),
            memory: Memory::gib(mem_gib),
        }
    }

    /// True if `self` fits inside `available` on both axes.
    pub fn fits_in(&self, available: &Resources) -> bool {
        self.cpu <= available.cpu && self.memory <= available.memory
    }

    /// Saturating subtraction on both axes.
    pub fn saturating_sub(&self, rhs: &Resources) -> Resources {
        Resources {
            cpu: Cpu(self.cpu.0.saturating_sub(rhs.cpu.0)),
            memory: Memory(self.memory.0.saturating_sub(rhs.memory.0)),
        }
    }

    /// The dominant-share utilisation of `self` against `capacity`
    /// (max of cpu fraction and memory fraction, in \[0,1\] when feasible).
    pub fn dominant_utilisation(&self, capacity: &Resources) -> f64 {
        let cpu_frac = if capacity.cpu.0 == 0 {
            0.0
        } else {
            self.cpu.0 as f64 / capacity.cpu.0 as f64
        };
        let mem_frac = if capacity.memory.0 == 0 {
            0.0
        } else {
            self.memory.0 as f64 / capacity.memory.0 as f64
        };
        cpu_frac.max(mem_frac)
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            cpu: Cpu(self.cpu.0 + rhs.cpu.0),
            memory: Memory(self.memory.0 + rhs.memory.0),
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Sub for Resources {
    type Output = Resources;
    fn sub(self, rhs: Resources) -> Resources {
        self.saturating_sub(&rhs)
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        *self = *self - rhs;
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu={} mem={}", self.cpu, self.memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_parse_and_display() {
        assert_eq!(Cpu::parse("2"), Some(Cpu::cores(2)));
        assert_eq!(Cpu::parse("2.5"), Some(Cpu(2500)));
        assert_eq!(Cpu::parse("250m"), Some(Cpu(250)));
        assert_eq!(Cpu::parse("x"), None);
        assert_eq!(Cpu::parse("-1"), None);
        assert_eq!(Cpu::cores(4).to_string(), "4");
        assert_eq!(Cpu(1500).to_string(), "1500m");
    }

    #[test]
    fn memory_parse_units() {
        assert_eq!(Memory::parse("4Gi"), Some(Memory::gib(4)));
        assert_eq!(Memory::parse("512Mi"), Some(Memory::mib(512)));
        assert_eq!(Memory::parse("4G"), Some(Memory(4_000_000_000)));
        assert_eq!(Memory::parse("4"), Some(Memory::gib(4)), "bare number = GB per paper");
        assert_eq!(Memory::parse("2000000000"), Some(Memory(2_000_000_000)), "big bare number = bytes");
        assert_eq!(Memory::parse("junk"), None);
    }

    #[test]
    fn memory_display() {
        assert_eq!(Memory::gib(6).to_string(), "6Gi");
        assert_eq!(Memory::mib(512).to_string(), "512Mi");
        assert_eq!(Memory(1536).to_string(), "1536");
    }

    #[test]
    fn fits_and_subtract() {
        let node = Resources::new(8, 32);
        let req = Resources::new(4, 16);
        assert!(req.fits_in(&node));
        let left = node - req;
        assert_eq!(left, Resources::new(4, 16));
        assert!(req.fits_in(&left));
        let too_big = Resources::new(16, 1);
        assert!(!too_big.fits_in(&node));
        // Saturation.
        assert_eq!(req - node, Resources::ZERO);
    }

    #[test]
    fn accumulate() {
        let mut total = Resources::ZERO;
        total += Resources::new(2, 4);
        total += Resources::new(1, 2);
        assert_eq!(total, Resources::new(3, 6));
        total -= Resources::new(1, 1);
        assert_eq!(total, Resources {
            cpu: Cpu::cores(2),
            memory: Memory::gib(5)
        });
    }

    #[test]
    fn dominant_utilisation() {
        let cap = Resources::new(10, 10);
        let use_cpu_heavy = Resources::new(8, 2);
        assert!((use_cpu_heavy.dominant_utilisation(&cap) - 0.8).abs() < 1e-9);
        let use_mem_heavy = Resources::new(1, 9);
        assert!((use_mem_heavy.dominant_utilisation(&cap) - 0.9).abs() < 1e-9);
        assert_eq!(Resources::ZERO.dominant_utilisation(&Resources::ZERO), 0.0);
    }
}
