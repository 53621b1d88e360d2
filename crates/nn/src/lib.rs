//! # geofm-nn
//!
//! Neural-network building blocks with **explicit forward/backward passes**,
//! plus the optimizers and schedules used by the paper's recipe (AdamW for
//! MAE pretraining, LARS for linear probing, cosine decay with warmup).
//!
//! There is no autograd tape. Every layer owns its [`Param`]s (value + grad),
//! caches whatever activations its backward pass needs during `forward`, and
//! exposes `backward(dy) -> dx`. This mirrors how a sharded trainer thinks
//! about a model: a sequence of *units*, each with a flat parameter buffer
//! that communication can be scheduled around — exactly the structure
//! `geofm-fsdp` exploits.
//!
//! Gradient correctness of every layer is verified against central finite
//! differences in the test suite.

pub mod activation;
pub mod attention;
pub mod block;
pub mod embed;
pub mod linear;
pub mod loss;
pub mod norm;
pub mod optim;
pub mod param;
pub mod schedule;

pub use activation::{tanh, Gelu};
pub use attention::MultiHeadAttention;
pub use block::{Mlp, TransformerBlock};
pub use embed::PatchEmbed;
pub use linear::Linear;
pub use loss::{cross_entropy, mse_masked, CrossEntropyOutput};
pub use norm::LayerNorm;
pub use optim::{clip_grad_norm, segments_of, AdamW, AdamWState, Lars, Optimizer, Segment, Sgd};
pub use param::{Module, Param, ParamVisitor};
pub use schedule::CosineSchedule;

/// Split `[B, T, D]` activations into `[B*heads, T, D/heads]` head-major
/// layout for batched attention.
pub fn split_heads(x: &geofm_tensor::Tensor, heads: usize) -> geofm_tensor::Tensor {
    let (b, t, d) = (x.dim(0), x.dim(1), x.dim(2));
    assert_eq!(d % heads, 0, "split_heads: width {} not divisible by {} heads", d, heads);
    let hd = d / heads;
    let mut out = geofm_tensor::Tensor::zeros(&[b * heads, t, hd]);
    let src = x.data();
    let dst = out.data_mut();
    for bi in 0..b {
        for ti in 0..t {
            let row = &src[(bi * t + ti) * d..(bi * t + ti + 1) * d];
            for h in 0..heads {
                let o = ((bi * heads + h) * t + ti) * hd;
                dst[o..o + hd].copy_from_slice(&row[h * hd..(h + 1) * hd]);
            }
        }
    }
    out
}

/// Inverse of [`split_heads`]: `[B*heads, T, D/heads]` → `[B, T, D]`.
pub fn merge_heads(x: &geofm_tensor::Tensor, heads: usize) -> geofm_tensor::Tensor {
    let (bh, t, hd) = (x.dim(0), x.dim(1), x.dim(2));
    assert_eq!(bh % heads, 0, "merge_heads: batch dim {} not divisible by {}", bh, heads);
    let b = bh / heads;
    let d = hd * heads;
    let mut out = geofm_tensor::Tensor::zeros(&[b, t, d]);
    let src = x.data();
    let dst = out.data_mut();
    for bi in 0..b {
        for ti in 0..t {
            let row = &mut dst[(bi * t + ti) * d..(bi * t + ti + 1) * d];
            for h in 0..heads {
                let i = ((bi * heads + h) * t + ti) * hd;
                row[h * hd..(h + 1) * hd].copy_from_slice(&src[i..i + hd]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geofm_tensor::TensorRng;

    #[test]
    fn split_merge_heads_roundtrip() {
        let mut rng = TensorRng::seed_from(1);
        let x = rng.randn(&[2, 3, 8], 1.0);
        let split = split_heads(&x, 4);
        assert_eq!(split.shape(), &[8, 3, 2]);
        let merged = merge_heads(&split, 4);
        assert_eq!(merged, x);
    }

    #[test]
    fn split_heads_places_values() {
        // batch 1, 1 token, width 4, 2 heads: row [a b c d] → head0 [a b], head1 [c d]
        let x = geofm_tensor::Tensor::from_vec(&[1, 1, 4], vec![1., 2., 3., 4.]);
        let s = split_heads(&x, 2);
        assert_eq!(s.data(), &[1., 2., 3., 4.]);
        assert_eq!(s.shape(), &[2, 1, 2]);
    }
}
