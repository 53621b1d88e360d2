//! Prints the instruction-set level the GEMM kernels run at on this CPU:
//! `avx2` or `portable`. Both levels give the same bits; the
//! level says which vector width a measured speed belongs to.
//!
//! ```sh
//! cargo run --release --example kernel_isa
//! ```

fn main() {
    println!("geofm-tensor GEMM kernel level: {}", geofm::tensor::kernel_isa());
}
