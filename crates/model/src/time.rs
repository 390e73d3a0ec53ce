//! The discrete slot model of the paper.

/// Index of a time slot (`k` in the paper), zero-based.
pub type Slot = usize;

/// The discrete time model: `K` slots of uniform duration `T_s`.
///
/// The paper assumes task release times fall at slot starts and end times at
/// slot ends, so a task occupies an integral, contiguous range of slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeGrid {
    /// Slot duration `T_s` in seconds.
    pub slot_seconds: f64,
    /// Number of slots `K` under consideration.
    pub num_slots: usize,
}

impl TimeGrid {
    /// Creates a grid of `num_slots` slots of `slot_seconds` seconds each.
    pub fn new(slot_seconds: f64, num_slots: usize) -> Self {
        TimeGrid {
            slot_seconds,
            num_slots,
        }
    }

    /// A grid with the paper's default `T_s` = 1 minute.
    pub fn minutes(num_slots: usize) -> Self {
        TimeGrid::new(60.0, num_slots)
    }

    /// Start time of slot `k` in seconds.
    #[inline]
    pub fn slot_start(&self, k: Slot) -> f64 {
        k as f64 * self.slot_seconds
    }

    /// End time of slot `k` in seconds.
    #[inline]
    pub fn slot_end(&self, k: Slot) -> f64 {
        (k + 1) as f64 * self.slot_seconds
    }

    /// Total horizon covered by the grid, in seconds.
    #[inline]
    pub fn horizon(&self) -> f64 {
        self.num_slots as f64 * self.slot_seconds
    }

    /// Iterator over all slot indices.
    pub fn slots(&self) -> impl Iterator<Item = Slot> {
        0..self.num_slots
    }

    /// Validates the grid.
    pub fn validate(&self) -> Result<(), crate::ModelError> {
        use crate::ModelError::InvalidTimeGrid;
        if !(self.slot_seconds.is_finite() && self.slot_seconds > 0.0) {
            return Err(InvalidTimeGrid("slot duration must be finite and positive"));
        }
        if self.num_slots == 0 {
            return Err(InvalidTimeGrid("grid must contain at least one slot"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_boundaries() {
        let g = TimeGrid::minutes(10);
        assert_eq!(g.slot_seconds, 60.0);
        assert_eq!(g.slot_start(0), 0.0);
        assert_eq!(g.slot_end(0), 60.0);
        assert_eq!(g.slot_start(9), 540.0);
        assert_eq!(g.horizon(), 600.0);
    }

    #[test]
    fn slots_iterator() {
        let g = TimeGrid::minutes(3);
        let v: Vec<_> = g.slots().collect();
        assert_eq!(v, vec![0, 1, 2]);
    }

    #[test]
    fn validation() {
        assert!(TimeGrid::minutes(10).validate().is_ok());
        assert!(TimeGrid::new(0.0, 10).validate().is_err());
        assert!(TimeGrid::new(60.0, 0).validate().is_err());
        assert!(TimeGrid::new(f64::INFINITY, 1).validate().is_err());
    }
}
