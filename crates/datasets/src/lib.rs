//! # datasets — synthetic analogues of the paper's evaluation datasets
//!
//! The paper evaluates on 11 real bipartite graphs from KONECT (Table I),
//! up to 137M edges. Those traces cannot be redistributed or downloaded
//! here, so this crate builds laptop-scale synthetic analogues that
//! preserve the *relative structural properties* the experiments depend
//! on — which side is heavy, degree skew, hub extremity, δ vs α_max —
//! plus the MovieLens-style rating generator with planted taste
//! communities that the effectiveness experiments (Fig. 6/7, Table II)
//! require, and query workload sampling.
//!
//! The substitution is sound for what the experiments measure: the
//! paper's algorithms are exact, so an analogue can only change *how
//! long* they take and *how big* the answers are, never whether they
//! are right. Those costs depend on the structural properties above —
//! δ bounds the index size (Lemma 5), the degree skew and hub extremity
//! set the community sizes `|C_{α,β}(q)|` each query touches — and the
//! [`catalog`] keeps each dataset's properties while scaling its size
//! down. Absolute times therefore differ from the paper's; the relative
//! shapes across datasets and parameters are what the figures compare.

// No unsafe in this crate — and none may creep in.
#![forbid(unsafe_code)]

pub mod catalog;
pub mod movielens;
pub mod workload;

pub use catalog::{DatasetSpec, WeightKind};
pub use movielens::{generate_movielens, MovieLens, MovieLensConfig, UserKind};
pub use workload::{random_core_queries, random_vertices};
