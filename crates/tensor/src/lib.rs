//! # geofm-tensor
//!
//! Dense `f32` tensors and the compute kernels that back the whole `geofm`
//! deep-learning stack.
//!
//! The design goals, in order:
//!
//! 1. **Predictability** — every tensor is a contiguous, row-major `Vec<f32>`
//!    plus a shape. There are no views, strides, or lazy graphs; an operation
//!    either works in place or returns a freshly allocated tensor. This is
//!    what makes the FSDP flat-parameter machinery in `geofm-fsdp` trivial to
//!    reason about (a parameter *is* its buffer).
//! 2. **Throughput** — the hot kernels (`matmul` and friends) are
//!    cache-blocked in the `i-k-j` loop order so the inner loop is a
//!    vectorisable AXPY over contiguous memory, and run at AVX2 width when
//!    the CPU has it and at the SSE2 baseline otherwise (picked once per
//!    process; see [`kernel_isa`]), with the same bits at both widths. Their row panels are expressed as rayon `par_chunks_mut`, which
//!    the in-repo rayon shim runs sequentially.
//! 3. **Determinism** — all random initialisation goes through seedable RNGs
//!    so distributed-equivalence tests can compare runs bit-for-bit.
//!
//! The crate deliberately has no autograd tape: layers in `geofm-nn` implement
//! explicit `forward`/`backward` methods, which keeps peak memory obvious and
//! lets the distributed engine schedule per-unit communication exactly like
//! PyTorch FSDP schedules its wrapped modules.

pub mod matmul;
pub mod ops;
pub mod random;
pub mod tensor;

pub use matmul::{bmm, bmm_a_bt, bmm_at_b, kernel_isa, matmul, matmul_a_bt, matmul_at_b};
pub use random::TensorRng;
pub use tensor::Tensor;

/// Convenience result alias used across the workspace for shape errors.
pub type ShapeResult<T> = Result<T, ShapeError>;

/// Error raised when tensor shapes are incompatible with an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    pub msg: String,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shape error: {}", self.msg)
    }
}

impl std::error::Error for ShapeError {}

impl ShapeError {
    /// Create a new shape error from anything displayable.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}
