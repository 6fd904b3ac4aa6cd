//! # sdv-noc
//!
//! A 2D-mesh Network-on-Chip model in the style of the EXTOLL mesh used by
//! the FPGA-SDV (the paper instantiates a 2×2 mesh connecting the core+VPU
//! to four L2HN slices).
//!
//! Packets are routed in XY dimension order and transported wormhole-style:
//! the head flit pays router pipeline latency per hop, the body pipelines
//! behind it, and each directed link is serialized (one flit per cycle), so
//! concurrent packets crossing the same link contend and the model produces
//! real queueing delay under load.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mesh;
pub mod topology;

pub use mesh::{Mesh, MeshConfig};
pub use topology::{Coord, NodeId};
