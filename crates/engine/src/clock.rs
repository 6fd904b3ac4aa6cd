//! The global time unit of the simulation.
//!
//! One [`Cycle`] corresponds to one clock cycle of the emulated FPGA-SDV
//! system (the paper's system runs at 50 MHz on the FPGA, but all results are
//! reported in cycles, so frequency never enters the model).

/// A point in simulated time, measured in emulated clock cycles.
pub type Cycle = u64;
