//! GELU activation (tanh approximation) with explicit backward, and the
//! crate's own `tanh` it is built on.

use geofm_tensor::Tensor;

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_C: f32 = 0.044_715;

/// `tanh` from f32 arithmetic alone: a rational minimax approximation, odd
/// degree-13 numerator over even degree-6 denominator, on inputs clamped to
/// ±7.905311 (where the quotient reaches ±1), with `tanh(x) = x` below
/// |x| < 4e-4.
///
/// It calls no libm, so its bits are the same on every host, and the select
/// and clamp compile to branch-free vector code. Within 8 ulp of glibc's
/// `tanhf` (and of `tanh` computed in f64) for every f32 in [−10, 10]; exactly
/// odd; ±0 and subnormals pass through, ±∞ → ±1, NaN → NaN. It is monotone
/// up to its own rounding only: no output falls more than 11 ulp below the
/// output at a smaller input.
#[inline]
pub fn tanh(x: f32) -> f32 {
    const CLAMP: f32 = 7.905_311;
    const TINY: f32 = 4e-4;
    const A1: f32 = 4.893_524_6e-3;
    const A3: f32 = 6.372_619_3e-4;
    const A5: f32 = 1.485_722_4e-5;
    const A7: f32 = 5.122_297e-8;
    const A9: f32 = -8.604_672e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_5e-16;
    const B0: f32 = 4.893_525e-3;
    const B2: f32 = 2.268_434_6e-3;
    const B4: f32 = 1.185_347_1e-4;
    const B6: f32 = 1.198_258_4e-6;
    let c = x.clamp(-CLAMP, CLAMP);
    let c2 = c * c;
    let p = ((((((A13 * c2 + A11) * c2 + A9) * c2 + A7) * c2 + A5) * c2 + A3) * c2 + A1) * c;
    let q = ((B6 * c2 + B4) * c2 + B2) * c2 + B0;
    if x.abs() < TINY {
        x
    } else {
        p / q
    }
}

/// `(gelu(x), gelu'(x))` from one shared `tanh`.
#[inline]
fn gelu_and_grad(x: f32) -> (f32, f32) {
    let t = tanh(SQRT_2_OVER_PI * (x + GELU_C * x * x * x));
    let sech2 = 1.0 - t * t;
    let y = 0.5 * x * (1.0 + t);
    let grad = 0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x);
    (y, grad)
}

/// Stateless-weights GELU layer; caches `gelu'(x)` for the backward pass.
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cache_grad: Option<Tensor>,
}

impl Gelu {
    /// New GELU layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass: one fused sweep writes `gelu(x)` and caches `gelu'(x)`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = Tensor::zeros(x.shape());
        let mut grad = Tensor::zeros(x.shape());
        for ((&v, out), d) in x.data().iter().zip(y.data_mut()).zip(grad.data_mut()) {
            (*out, *d) = gelu_and_grad(v);
        }
        self.cache_grad = Some(grad);
        y
    }

    /// Inference-only forward (no caching); bit-identical to [`Gelu::forward`].
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        x.map(|v| gelu_and_grad(v).0)
    }

    /// Backward pass: `dx = gelu'(x) ⊙ dy`, written into the cached buffer.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut dx = self.cache_grad.take().expect("Gelu::backward before forward");
        assert_eq!(dx.shape(), dy.shape(), "Gelu::backward shape mismatch");
        dx.mul_assign(dy);
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geofm_tensor::TensorRng;

    fn gelu_scalar(x: f32) -> f32 {
        gelu_and_grad(x).0
    }

    fn gelu_grad_scalar(x: f32) -> f32 {
        gelu_and_grad(x).1
    }

    #[test]
    fn known_values() {
        assert!((gelu_scalar(0.0)).abs() < 1e-7);
        // gelu(x) → x for large positive x, → 0 for large negative x
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu_scalar(-10.0).abs() < 1e-4);
        // gelu(1) ≈ 0.8412 (tanh approximation)
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = TensorRng::seed_from(5);
        let x = rng.randn(&[40], 1.5);
        let eps = 1e-3f32;
        for i in 0..40 {
            let xi = x.data()[i];
            let fd = (gelu_scalar(xi + eps) - gelu_scalar(xi - eps)) / (2.0 * eps);
            let an = gelu_grad_scalar(xi);
            assert!((fd - an).abs() < 1e-3, "x={}: fd {} vs analytic {}", xi, fd, an);
        }
    }

    #[test]
    fn layer_backward_chains_upstream() {
        // the cached derivative is exactly the one recomputed from x
        let mut rng = TensorRng::seed_from(6);
        let x = rng.randn(&[3, 40], 2.0);
        let dy = rng.randn(&[3, 40], 1.0);
        let mut g = Gelu::new();
        g.forward(&x);
        let dx = g.backward(&dy);
        for i in 0..120 {
            let expect = gelu_grad_scalar(x.data()[i]) * dy.data()[i];
            assert_eq!(dx.data()[i].to_bits(), expect.to_bits(), "x={}", x.data()[i]);
        }
    }

    #[test]
    fn training_forward_matches_inference_forward_bit_for_bit() {
        let mut rng = TensorRng::seed_from(7);
        let x = rng.randn(&[8, 300], 3.0);
        let mut g = Gelu::new();
        let train = g.forward(&x);
        let infer = g.forward_inference(&x);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&train), bits(&infer));
    }

    #[test]
    fn monotone_for_positive_inputs() {
        let mut last = gelu_scalar(0.0);
        for i in 1..100 {
            let v = gelu_scalar(i as f32 * 0.1);
            assert!(v > last);
            last = v;
        }
    }
}
