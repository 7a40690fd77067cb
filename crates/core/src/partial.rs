//! The partial-neighbor map `E` (Algorithm 2 of the paper).
//!
//! For every *predicted stop point* (a point whose range query was skipped
//! because the estimator said it is not core), LAF keeps the subset of its
//! true neighbors that happens to be discovered for free: whenever another
//! point `P` executes a range query and finds a predicted stop point `Pₙ`
//! among its neighbors, `P` is — by symmetry of the distance — also a
//! neighbor of `Pₙ` and is recorded in `E(Pₙ)`. After clustering, a predicted
//! stop point with at least τ recorded partial neighbors must actually be a
//! core point (false negative), and the clusters around it get merged by the
//! post-processing step.
//!
//! The map is dense over row ids: a per-row flag is tested before anything
//! else, so the hits of an executed query that are not stop points (nearly
//! all of them) cost one load each.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Map from predicted stop points to the partial neighbors discovered so far.
///
/// Equality is set equality: the same stop points, each with the same set
/// of partial neighbors, in whatever order they were recorded.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PartialNeighborMap {
    /// `lists[p]` is `Some` iff row `p` is a registered stop point, holding
    /// its partial neighbors in the order they were recorded.
    lists: Vec<Option<Vec<u32>>>,
    /// `queried[q]`: `q` has called `update`, so a later call by `q` must
    /// check for duplicates.
    queried: Vec<bool>,
}

impl PartialNeighborMap {
    /// Create an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `point` as a predicted stop point (line 8 / 27 of
    /// Algorithm 1: `if P not in E then E(P) := ∅`). Keeps any partial
    /// neighbors already recorded for it. The map grows to `point + 1` rows.
    pub fn register_stop_point(&mut self, point: u32) {
        let p = point as usize;
        if self.lists.len() <= p {
            self.lists.resize(p + 1, None);
        }
        self.lists[p].get_or_insert_with(Vec::new);
    }

    /// `UpdatePartialNeighbors` (Algorithm 2): `querier` has just executed a
    /// range query and found `neighbors`; for every neighbor already tracked
    /// in the map, record `querier` as one of its partial neighbors (once).
    pub fn update(&mut self, querier: u32, neighbors: &[u32]) {
        let q = querier as usize;
        // Only a repeated querier can already sit in a list; within this
        // call, its own push is the list's last entry.
        let repeat = self.queried.get(q).copied().unwrap_or(false);
        for &nb in neighbors {
            if let Some(Some(list)) = self.lists.get_mut(nb as usize) {
                let known = list.last() == Some(&querier) || (repeat && list.contains(&querier));
                if nb != querier && !known {
                    list.push(querier);
                }
            }
        }
        if self.queried.len() <= q {
            self.queried.resize(q + 1, false);
        }
        self.queried[q] = true;
    }

    /// Whether `point` is tracked as a predicted stop point.
    pub fn contains(&self, point: u32) -> bool {
        self.list(point).is_some()
    }

    /// Partial neighbors recorded for `point` (empty if not tracked).
    pub fn partial_neighbors(&self, point: u32) -> impl Iterator<Item = u32> + '_ {
        self.list(point).into_iter().flatten().copied()
    }

    /// Number of partial neighbors recorded for `point`.
    pub fn neighbor_count(&self, point: u32) -> usize {
        self.list(point).map_or(0, <[u32]>::len)
    }

    /// Number of tracked predicted stop points.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// `true` when no stop points are tracked.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Iterate over `(stop_point, partial_neighbors)` entries, in ascending
    /// stop-point order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        let tracked = self.lists.iter().enumerate();
        tracked.filter_map(|(p, list)| Some((p as u32, list.as_deref()?)))
    }

    /// The predicted stop points whose partial-neighbor count reaches τ —
    /// the detected false negatives the post-processing acts on, ascending.
    pub fn false_negatives(&self, tau: usize) -> Vec<u32> {
        let detected = self.iter().filter(|(_, list)| list.len() >= tau);
        detected.map(|(p, _)| p).collect()
    }

    fn list(&self, point: u32) -> Option<&[u32]> {
        self.lists.get(point as usize)?.as_deref()
    }
}

impl PartialEq for PartialNeighborMap {
    fn eq(&self, other: &Self) -> bool {
        let sets = |map: &Self| -> Vec<(u32, BTreeSet<u32>)> {
            map.iter()
                .map(|(p, list)| (p, list.iter().copied().collect()))
                .collect()
        };
        sets(self) == sets(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_update() {
        let mut e = PartialNeighborMap::new();
        assert!(e.is_empty());
        e.register_stop_point(7);
        e.register_stop_point(9);
        assert_eq!(e.len(), 2);
        assert!(e.contains(7));
        assert!(!e.contains(3));

        // Point 1 queries and finds 7 and 2 among its neighbors: only the
        // tracked stop point 7 gains a partial neighbor.
        e.update(1, &[7, 2]);
        assert_eq!(e.neighbor_count(7), 1);
        assert_eq!(e.neighbor_count(9), 0);
        assert_eq!(e.neighbor_count(2), 0);

        // Registering again must not clear recorded neighbors.
        e.register_stop_point(7);
        assert_eq!(e.neighbor_count(7), 1);

        // Self matches are ignored, duplicates are deduplicated.
        e.update(7, &[7]);
        e.update(1, &[7]);
        assert_eq!(e.neighbor_count(7), 1);
        e.update(4, &[7, 9]);
        assert_eq!(e.neighbor_count(7), 2);
        assert_eq!(e.neighbor_count(9), 1);
        let partial: Vec<u32> = {
            let mut v: Vec<u32> = e.partial_neighbors(7).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(partial, vec![1, 4]);
    }

    #[test]
    fn false_negative_detection_uses_tau() {
        let mut e = PartialNeighborMap::new();
        e.register_stop_point(0);
        e.register_stop_point(1);
        e.update(10, &[0, 1]);
        e.update(11, &[0]);
        e.update(12, &[0]);
        assert_eq!(e.false_negatives(3), vec![0]);
        assert_eq!(e.false_negatives(1), vec![0, 1]);
        assert!(e.false_negatives(4).is_empty());
    }

    #[test]
    fn untracked_points_never_accumulate() {
        let mut e = PartialNeighborMap::new();
        e.update(5, &[1, 2, 3]);
        assert!(e.is_empty());
        assert_eq!(e.partial_neighbors(1).count(), 0);
    }

    #[test]
    fn duplicates_within_one_call_record_once_and_equality_ignores_order() {
        let mut a = PartialNeighborMap::new();
        let mut b = PartialNeighborMap::new();
        for e in [&mut a, &mut b] {
            e.register_stop_point(2);
            e.register_stop_point(5);
        }
        a.update(1, &[2, 2, 5]);
        a.update(3, &[2]);
        // A repeated querier is found even behind a later one.
        a.update(1, &[2]);
        b.update(3, &[2]);
        b.update(1, &[5, 2]);
        assert_eq!(a.neighbor_count(2), 2);
        assert_eq!(a, b);
        b.update(4, &[5]);
        assert_ne!(a, b);
        assert_eq!(b.iter().map(|(p, _)| p).collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    fn serde_round_trip() {
        let mut e = PartialNeighborMap::new();
        e.register_stop_point(3);
        e.update(8, &[3]);
        let json = serde_json::to_string(&e).unwrap();
        let back: PartialNeighborMap = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
