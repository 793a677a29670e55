//! Query algorithms for the significant (α,β)-community (Section IV).

pub mod baseline;
pub mod binary;
pub mod expand;
pub mod oracle;
pub mod peel;
pub(crate) mod profile;

pub use baseline::{scs_baseline, scs_baseline_into};
pub use binary::{scs_binary, scs_binary_into};
pub use expand::{scs_expand, scs_expand_into, ExpandOptions, DEFAULT_EPSILON};
pub use peel::{scs_peel, scs_peel_into};
