//! # laf-clustering
//!
//! Density-based clustering algorithms: the original DBSCAN (the paper's
//! ground truth) and the four approximate baselines the paper evaluates
//! against.
//!
//! | Algorithm | Paper baseline | Module |
//! |-----------|----------------|--------|
//! | DBSCAN (Ester et al. 1996) | ground truth | [`dbscan`] |
//! | DBSCAN++ (Jang & Jiang 2018) | sampling-based variant LAF also accelerates | [`dbscan_pp`] |
//! | KNN-BLOCK DBSCAN (Chen et al. 2019) | k-means-tree KNN pruning | [`knn_block`] |
//! | BLOCK-DBSCAN (Chen et al. 2021) | cover-tree inner-block pruning | [`block`] |
//! | ρ-approximate DBSCAN (Gan & Tao 2015/2017) | grid-based approximation | [`rho_approx`] |
//!
//! All of them consume data through [`laf_vector::Dataset`], search neighbors
//! through [`laf_index`] engines and produce a [`Clustering`], so the LAF
//! layer (crate `laf-core`) and the benchmark harness can treat them
//! uniformly through the [`Clusterer`] trait.
//!
//! DBSCAN, DBSCAN++ and their LAF versions in `laf-core` issue their ε-range
//! queries through one [`RangeJoin`] ([`join`]), which computes the lists a
//! loop will consume in windowed `range_batch` calls.

#![warn(missing_docs)]

pub mod block;
pub mod dbscan;
pub mod dbscan_pp;
#[cfg(test)]
mod differential;
pub mod join;
pub mod knn_block;
pub mod result;
pub mod rho_approx;

pub use block::{BlockDbscan, BlockDbscanConfig};
pub use dbscan::{Dbscan, DbscanConfig};
pub use dbscan_pp::{label_from_cores, DbscanPlusPlus, DbscanPlusPlusConfig};
pub use join::{join_window, JoinTally, RangeJoin};
pub use knn_block::{KnnBlockDbscan, KnnBlockDbscanConfig};
pub use result::{Clusterer, Clustering, NOISE, UNDEFINED};
pub use rho_approx::{RhoApproxDbscan, RhoApproxDbscanConfig};
