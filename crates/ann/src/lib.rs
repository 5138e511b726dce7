//! Multilayer-perceptron learning substrate for the Parrot transformation.
//!
//! This crate implements the learning half of *Neural Acceleration for
//! General-Purpose Approximate Programs* (MICRO 2012): sigmoid multilayer
//! perceptrons, plain backpropagation training, min/max input-output
//! normalization, and the cross-validated topology search the paper's
//! compiler uses to pick a network that mimics a candidate code region.
//!
//! The paper links against the FANN C library for its software-only
//! comparison (Figure 9). Here that comparison runs the trained network as
//! IR on the simulated core (`parrot::codegen::build_software_nn`).
//!
//! # Example
//!
//! ```
//! use ann::{Dataset, Mlp, Topology, Trainer, TrainParams};
//!
//! // Learn y = x^2 on [0, 1].
//! let mut data = Dataset::new(1, 1);
//! for i in 0..200 {
//!     let x = i as f32 / 199.0;
//!     data.push(&[x], &[x * x]).unwrap();
//! }
//! let topology = Topology::new(vec![1, 4, 1]).unwrap();
//! let mut mlp = Mlp::seeded(topology, 42);
//! let params = TrainParams { epochs: 600, learning_rate: 0.3, ..TrainParams::default() };
//! Trainer::new(params).train(&mut mlp, &data);
//! let out = mlp.feed_forward(&[0.5]);
//! assert!((out[0] - 0.25).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod batch;
mod dataset;
mod error;
mod mlp;
mod normalize;
mod quant;
mod scratch;
mod search;
pub mod seed;
mod topology;
mod train;

pub use activation::{sigmoid, sigmoid_derivative, SigmoidLut};
pub use batch::{BatchScratch, LANES};
pub use dataset::Dataset;
pub use error::AnnError;
pub use mlp::Mlp;
pub use normalize::Normalizer;
pub use quant::{FixedSigmoidLut, QFormat, QuantScratch, QuantTrace, QuantizedMlp, MAX_TOTAL_BITS};
pub use scratch::{mse_with, Scratch};
pub use search::{SearchOutcome, SearchParams, TopologyCandidate, TopologySearch};
pub use topology::Topology;
pub use train::{mse, TrainParams, TrainReport, Trainer};
