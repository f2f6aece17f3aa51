//! # ua-addrspace
//!
//! The OPC UA address space: a store of typed, cross-referenced nodes
//! with per-user access control (OPC 10000-3).
//!
//! The paper's §5.4 measures exactly this surface: which fraction of
//! nodes an *anonymous* user can read, write, and execute (Figure 7), and
//! which namespaces a server registers (used to classify systems as
//! production or test). This crate provides:
//!
//! * [`node::Node`] — node records with class, value, access levels;
//! * [`space::AddressSpace`] — the store, with the standard namespace-0
//!   skeleton (Root/Objects/Server incl. `SoftwareVersion`), browsing,
//!   attribute reads, writes, and method calls, all user-aware;
//! * [`builder`] — convenience construction of industrial object trees.
//!
//! A simulated world is mostly address spaces, so the store is
//! compact. Nodes sit in one table indexed by `u32`, in insertion
//! order, with one `NodeId` → index map; a node stores its id once.
//! References name their type by its namespace-0 number and their
//! target by table index, so they cannot dangle and a browse reads
//! each target without another lookup. DisplayName is derived from
//! BrowseName rather than stored, and type definitions are
//! namespace-0 numbers. [`SpaceBuilder::finish`] trims every table to
//! its length, and [`AddressSpace::resident_bytes`] accounts for what
//! a space holds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod ids;
pub mod node;
pub mod space;

pub use builder::SpaceBuilder;
pub use node::{Node, NodeAccess, UserClass};
pub use space::AddressSpace;
