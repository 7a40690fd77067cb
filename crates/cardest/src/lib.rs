//! # laf-cardest
//!
//! Learned cardinality estimation for angular range queries — the first half
//! of the paper's LAF framework.
//!
//! The key idea of LAF-DBSCAN is that deciding whether a point is *core*
//! only requires the **number** of neighbors within ε, not the neighbors
//! themselves, and that number can be predicted by a regression model far
//! more cheaply than it can be counted by a range query. This crate provides:
//!
//! * [`CardinalityEstimator`] — the estimator abstraction the LAF framework
//!   plugs in front of every range query;
//! * [`RmiEstimator`] — the one learned estimator: a Recursive Model Index
//!   of fully-connected neural networks. The paper's layout has 3 stages of
//!   1 / 2 / 4 networks (borrowed from CardNet's RMI baseline); the LAF
//!   pipeline serves the one-stage layout, a single network, which is also
//!   the only one snapshots store. Both batch their estimates stage by
//!   stage;
//! * [`SamplingEstimator`] and [`HistogramEstimator`] — the traditional
//!   (non-learned) baselines cardinality-estimation literature compares
//!   against;
//! * [`ExactEstimator`] and [`ConstantEstimator`] — oracles used for testing
//!   and failure injection;
//! * [`TrainingSetBuilder`] — builds `(query ⊕ ε) → ln(1 + |N_ε(query)|)`
//!   training pairs over a grid of cosine thresholds (the paper uses
//!   0.1–0.9), exploiting the boundedness of angular distance that the paper
//!   argues makes the learning problem tractable;
//! * [`nn`] — the from-scratch dense neural network (ReLU, Adam, MSE) the
//!   learned estimator is built on. No GPU, no external ML framework.

#![warn(missing_docs)]

pub mod calibration;
pub mod estimator;
pub mod nn;
pub mod rmi;
pub mod traditional;
pub mod training;

pub use calibration::{CorePredictionReport, EstimatorCalibrator, QErrorReport};
pub use estimator::{CardinalityEstimator, ConstantEstimator, ExactEstimator};
pub use nn::{Mlp, NetConfig, TrainReport};
pub use rmi::{RmiConfig, RmiEstimator};
pub use traditional::{HistogramEstimator, SamplingEstimator};
pub use training::{TrainingSample, TrainingSet, TrainingSetBuilder};
