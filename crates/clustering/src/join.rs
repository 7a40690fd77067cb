//! Join, then label: the ε-neighbourhoods a DBSCAN loop consumes, computed
//! in windowed [`RangeQueryEngine::range_batch`] calls.
//!
//! DBSCAN-style loops (G-DBSCAN's graph-first, label-second shape; Andrade
//! et al., ICCS 2013) query each point at most once: at the moment it leaves
//! the undefined state. Which points get queried is therefore fixed before
//! the loop starts — every point for DBSCAN, the gate's `Execute` points for
//! LAF-DBSCAN, the sampled (`Execute`) points for the DBSCAN++ variants —
//! and only the order in which the loop consumes their lists depends on the
//! data. [`RangeJoin`] exploits that: when the loop asks for a row whose list
//! is not computed yet, it computes that row together with up to `W − 1`
//! rows the loop names as its next ones, in one `range_batch` call, and
//! hands every list out exactly once. The loop itself is unchanged, so every
//! counter and every order-dependent update fires at the same moment as with
//! one `range` call per row.
//!
//! A loop names its next rows in consumption order — the first unconsumed
//! rows of its seed list while a cluster expands, the outer loop's next rows
//! otherwise — so a window is fully consumed before the next window of the
//! same kind is needed, and at most `2W` lists are resident at any time.

use laf_index::RangeQueryEngine;
use laf_vector::tile::BLOCK_PROBES;
use laf_vector::Dataset;
use std::mem::size_of;

/// Byte budget for the neighbour lists of one window, sized for the worst
/// case of lists of `n` hits (see [`join_window`]).
const JOIN_BUDGET_BYTES: usize = 64 << 20;

/// Rows per window for a dataset of `n` rows: a 64 MiB budget over a list of
/// `n` hits (2,097 rows at n = 8,000), floored at one probe block of the
/// blocked batch kernels ([`BLOCK_PROBES`] queries) per thread of the
/// current rayon pool.
pub fn join_window(n: usize) -> usize {
    let budgeted = JOIN_BUDGET_BYTES / n.max(1).saturating_mul(size_of::<u32>());
    budgeted.max(BLOCK_PROBES * rayon::current_num_threads())
}

/// Where one row's list stands.
enum Slot {
    /// Not computed yet.
    Pending,
    /// Computed (or claimed by the window being computed), not handed out.
    Resident(Vec<u32>),
    /// Handed out to the loop.
    Taken,
}

/// What a [`RangeJoin`] did over one clustering run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinTally {
    /// `range_batch` calls issued.
    pub windows: u64,
    /// Neighbour lists computed.
    pub computed: u64,
    /// Neighbour lists handed out to the loop.
    pub handed_out: u64,
    /// Most lists resident (computed, not yet handed out) at any time.
    pub peak_resident: usize,
}

/// The ε-range join under one DBSCAN loop: hands out each consumed row's
/// neighbour list, computing lists in windows of up to `W` rows.
pub struct RangeJoin<'a> {
    engine: &'a dyn RangeQueryEngine,
    data: &'a Dataset,
    eps: f32,
    window: usize,
    slots: Vec<Slot>,
    resident: usize,
    tally: JoinTally,
}

impl<'a> RangeJoin<'a> {
    /// A join over `data`'s rows answered by `engine` at radius `eps`, with
    /// windows of up to `window` rows (at least 1; the loops pass
    /// [`join_window`]).
    pub fn new(
        engine: &'a dyn RangeQueryEngine,
        data: &'a Dataset,
        eps: f32,
        window: usize,
    ) -> Self {
        Self {
            engine,
            data,
            eps,
            window: window.max(1),
            slots: (0..data.len()).map(|_| Slot::Pending).collect(),
            resident: 0,
            tally: JoinTally::default(),
        }
    }

    /// The ε-neighbourhood of `row`, exactly as `engine.range` returns it.
    ///
    /// When the list is not computed yet, it is computed together with the
    /// first `W − 1` rows of `next` that are still pending, in one
    /// `range_batch` call. `next` must name only rows the loop will consume
    /// later, in the order it will consume them.
    ///
    /// # Panics
    /// When `row`'s list was already handed out: a loop consumes each row
    /// once.
    pub fn take(&mut self, row: usize, next: impl IntoIterator<Item = usize>) -> Vec<u32> {
        self.tally.handed_out += 1;
        match std::mem::replace(&mut self.slots[row], Slot::Taken) {
            Slot::Resident(list) => {
                self.resident -= 1;
                return list;
            }
            Slot::Taken => panic!("row {row}: its neighbour list was already handed out"),
            Slot::Pending => {}
        }
        let mut rows = vec![row];
        for r in next {
            if rows.len() == self.window {
                break;
            }
            if matches!(self.slots[r], Slot::Pending) {
                // Claim the row so a repeat in `next` is not queried twice.
                self.slots[r] = Slot::Resident(Vec::new());
                rows.push(r);
            }
        }
        let queries: Vec<&[f32]> = rows.iter().map(|&r| self.data.row(r)).collect();
        let lists = self.engine.range_batch(&queries, self.eps);
        assert_eq!(
            lists.len(),
            rows.len(),
            "range_batch must answer every query"
        );
        let mut lists = lists.into_iter();
        let own = lists.next().unwrap_or_default();
        for (&r, list) in rows[1..].iter().zip(lists) {
            self.slots[r] = Slot::Resident(list);
        }
        self.resident += rows.len() - 1;
        self.tally.windows += 1;
        self.tally.computed += rows.len() as u64;
        self.tally.peak_resident = self.tally.peak_resident.max(self.resident);
        own
    }

    /// What the join computed and handed out so far.
    pub fn tally(&self) -> JoinTally {
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_index::LinearScan;
    use laf_vector::Metric;

    fn data() -> Dataset {
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|i| {
                let a = i as f32 * 0.05;
                vec![a.cos(), a.sin()]
            })
            .collect();
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn window_is_budgeted_and_floored_at_one_block_per_thread() {
        let floor = BLOCK_PROBES * rayon::current_num_threads();
        assert_eq!(join_window(8_000), 2_097.max(floor));
        assert_eq!(join_window(152_185), 110.max(floor));
        assert_eq!(join_window(usize::MAX / 8), floor);
        assert_eq!(join_window(0), JOIN_BUDGET_BYTES / 4);
    }

    #[test]
    fn lists_equal_range_and_each_is_handed_out_once() {
        let data = data();
        let engine = LinearScan::new(&data, Metric::Cosine);
        for window in [1, 2, 3, 7, 40, 100] {
            let mut join = RangeJoin::new(&engine, &data, 0.01, window);
            // Consume the rows back to front, naming the rest in that order,
            // with a repeat of every name.
            for row in (0..data.len()).rev() {
                let next = (0..row).rev().flat_map(|r| [r, r]);
                assert_eq!(join.take(row, next), engine.range(data.row(row), 0.01));
            }
            let tally = join.tally();
            assert_eq!(tally.computed, data.len() as u64, "window {window}");
            assert_eq!(tally.handed_out, data.len() as u64);
            assert_eq!(tally.windows, data.len().div_ceil(window) as u64);
            assert!(tally.peak_resident < window);
        }
    }

    #[test]
    #[should_panic(expected = "already handed out")]
    fn a_row_is_handed_out_once() {
        let data = data();
        let engine = LinearScan::new(&data, Metric::Cosine);
        let mut join = RangeJoin::new(&engine, &data, 0.01, 4);
        join.take(3, []);
        join.take(3, []);
    }
}
