//! SIMT GPU simulator substrate for the GP-metis reproduction.
//!
//! The paper runs its coarsening and un-coarsening kernels on an NVIDIA
//! GTX Titan; this environment has no GPU, so the kernels run on this
//! simulator instead (see DESIGN.md §1). It provides:
//!
//! * typed device buffers over relaxed atomics ([`buffer::DBuf`]) — so the
//!   paper's lock-free racy algorithms run with genuine CUDA-like
//!   "some write wins" semantics and stay data-race-free in Rust terms;
//! * kernel launches over a grid of warps ([`device::Device::launch`]),
//!   executed with real host-thread concurrency;
//! * per-warp memory-coalescing accounting (128-byte segments, lockstep
//!   trace replay) and branch-divergence accounting;
//! * a roofline timing model with the GTX Titan's published specs plus a
//!   PCIe transfer model ([`config::GpuConfig`]);
//! * device-wide scan and reduce primitives standing in for CUB
//!   ([`scan`], [`reduce`]).

pub mod buffer;
pub mod config;
pub mod device;
pub mod event;
pub mod interconnect;
pub mod lane;
pub mod reduce;
pub mod scan;
pub mod stream;

pub use buffer::{DBuf, DeviceInt, DeviceWord};
pub use config::GpuConfig;
pub use device::{Device, DeviceError, GpuOom, KernelStats};
pub use event::{EngineId, EventId};
pub use interconnect::{DeviceGroup, Interconnect, LinkConfig, LinkStats};
pub use lane::Lane;
pub use reduce::{reduce_max_u32, reduce_sum_u32};
pub use scan::{
    exclusive_scan_prefix_u32, exclusive_scan_u32, inclusive_scan_prefix_u32, inclusive_scan_u32,
    ScanScratch,
};
pub use stream::{EngineReport, OverlapReport, Schedule, Timeline};
