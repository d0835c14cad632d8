//! The campaign fold's per-worker buffer slot.
//!
//! [`run_campaign_observed`](crate::run_campaign_observed) builds one
//! [`MetricsScratch`] per sweep worker (see
//! `SweepRunner::run_indexed_with`) and lends it to the per-call fold
//! closure, so a fold that needs temporary vectors can grow them to the
//! high-water mark of the calls it sees and then reuse them
//! allocation-free. The trace-level metric reductions (`voip::metrics`)
//! do not take a scratch: each has one form, which allocates its own
//! buffers.
//!
//! # Determinism
//!
//! Scratch state is *only* a buffer: a fold must clear what it uses before
//! writing, so results never depend on which calls a worker happened to
//! fold earlier. This is exactly the contract `run_indexed_with` requires,
//! and the campaign engine replaces the scratch with a fresh one after a
//! quarantined (panicking) shard.

/// A bundle of reusable buffers for the campaign fold.
///
/// The fields are public on purpose: a fold closure borrows whichever
/// buffers it needs. Callers must treat the contents as undefined between
/// calls.
#[derive(Clone, Debug, Default)]
pub struct MetricsScratch {
    /// Primary `f64` buffer.
    pub values: Vec<f64>,
    /// Secondary `f64` buffer (a second series beside `values`).
    pub aux: Vec<f64>,
    /// Integer run-length buffer.
    pub runs: Vec<usize>,
}

impl MetricsScratch {
    /// A scratch with empty buffers (no allocation until first use).
    pub fn new() -> MetricsScratch {
        MetricsScratch::default()
    }

    /// Clear all buffers, keeping their capacity.
    pub fn clear(&mut self) {
        self.values.clear();
        self.aux.clear();
        self.runs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_keeps_capacity() {
        let mut s = MetricsScratch::new();
        s.values.extend([1.0; 100]);
        s.runs.extend([1usize; 50]);
        let cap = (s.values.capacity(), s.runs.capacity());
        s.clear();
        assert!(s.values.is_empty() && s.runs.is_empty());
        assert_eq!((s.values.capacity(), s.runs.capacity()), cap);
    }
}
