//! # bicore — (α,β)-core machinery for bipartite graphs
//!
//! Everything the significant (α,β)-community search library needs to
//! reason about (α,β)-cores (Definition 1 of Wang et al., ICDE 2021):
//!
//! * [`abcore`](mod@abcore) — online peeling computation of the (α,β)-core and the
//!   online query algorithm `Qo` (Ding et al., CIKM'17);
//! * [`decompose`] — α-offset/β-offset decomposition (`s_a(u,α)`,
//!   `s_b(u,β)`, Definition 6), the kernel shared by every index;
//! * [`degeneracy`](mod@degeneracy) — the degeneracy δ (Definition 7) via unipartite
//!   k-core decomposition;
//! * [`bicore_index`] — the bicore index `Iv` of Liu et al. (WWW'19) and
//!   its query algorithm `Qv`, the indexed baseline of the paper's Fig. 8.

// No unsafe in this crate — and none may creep in.
#![forbid(unsafe_code)]

pub mod abcore;
pub mod bicore_index;
pub mod decompose;
pub mod degeneracy;

pub use abcore::{abcore, abcore_community, abcore_community_into, abcore_in, CoreMembership};
pub use bicore_index::BicoreIndex;
pub use decompose::{
    alpha_offsets, alpha_offsets_into, beta_offsets, beta_offsets_into, OffsetTable,
};
pub use degeneracy::{degeneracy, unipartite_core_numbers};
