//! The scalar register file with per-register valid bits (§III-B).

use vip_isa::{Reg, NUM_REGS};
use vip_snap::snapshot;

/// 64×64-bit scalar registers, each with a valid bit.
///
/// A register's valid bit is cleared when an instruction that fills it
/// asynchronously (an `ld.reg`) issues, and set when the fill completes;
/// instructions reading — or overwriting — an invalid register stall at
/// issue. This scoreboard is how VIP avoids scalar pipeline hazards
/// without register renaming.
#[derive(Debug, Clone)]
pub struct ScalarRegs {
    values: [u64; NUM_REGS],
    valid: [bool; NUM_REGS],
}

impl ScalarRegs {
    /// All registers zero and valid.
    #[must_use]
    pub fn new() -> Self {
        ScalarRegs {
            values: [0; NUM_REGS],
            valid: [true; NUM_REGS],
        }
    }

    /// Reads a register's value.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the register is invalid — issue logic must check
    /// [`is_valid`](Self::is_valid) first.
    #[must_use]
    pub fn read(&self, r: Reg) -> u64 {
        debug_assert!(self.valid[r.index()], "read of invalid {r}");
        self.values[r.index()]
    }

    /// Writes a register and marks it valid.
    pub fn write(&mut self, r: Reg, value: u64) {
        self.values[r.index()] = value;
        self.valid[r.index()] = true;
    }

    /// Whether the register's valid bit is set.
    #[must_use]
    pub fn is_valid(&self, r: Reg) -> bool {
        self.valid[r.index()]
    }

    /// Clears the valid bit (an asynchronous fill is in flight).
    pub fn invalidate(&mut self, r: Reg) {
        self.valid[r.index()] = false;
    }
}

impl Default for ScalarRegs {
    fn default() -> Self {
        Self::new()
    }
}

snapshot!(
    /// Valid bits are captured alongside values: a snapshot can land while
    /// an `ld.reg` fill is outstanding, leaving registers architecturally
    /// invalid.
    struct ScalarRegs { values, valid }
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoreboarding() {
        let mut regs = ScalarRegs::new();
        let r5 = Reg::new(5);
        assert!(regs.is_valid(r5));
        assert_eq!(regs.read(r5), 0);
        regs.invalidate(r5);
        assert!(!regs.is_valid(r5));
        regs.write(r5, 42);
        assert!(regs.is_valid(r5));
        assert_eq!(regs.read(r5), 42);
    }
}
