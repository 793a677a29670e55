//! Index structures for optimal retrieval of (α,β)-communities
//! (Section III of the paper).

pub(crate) mod level;

pub mod basic;
pub mod delta;
pub mod maintenance;

pub use basic::{BasicIndex, BudgetExceeded};
pub use delta::DeltaIndex;
pub use level::QueryStats;
pub use maintenance::DynamicIndex;
