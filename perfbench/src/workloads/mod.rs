//! The three workloads.

mod adaptive;
mod label;
mod query;

pub use adaptive::Adaptive;
pub use label::Label;
pub use query::Query;
