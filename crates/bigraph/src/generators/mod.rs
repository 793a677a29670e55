//! Synthetic bipartite graph generators.
//!
//! The paper evaluates on 11 KONECT datasets that cannot be redistributed
//! here; `datasets::catalog` builds laptop-scale analogues out of these
//! generators, keeping each dataset's layer-size ratio, degree skew and
//! hubs — the properties that set index size and community sizes, and
//! so the costs the experiments compare (the argument is in the
//! `datasets` crate docs). The generators are deterministic given an
//! [`rand::Rng`] seed.
//!
//! All generators produce weight `1.0` on every edge; apply a model from
//! [`crate::weights`] afterwards to obtain a weighted graph.

mod chung_lu;
mod planted;
mod uniform;

pub use chung_lu::{chung_lu_bipartite, power_law_degrees, ChungLuConfig};
pub use planted::{planted_communities, PlantedConfig, PlantedGraph};
pub use uniform::{complete_biclique, random_bipartite};
