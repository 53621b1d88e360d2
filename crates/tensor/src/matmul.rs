//! Cache-blocked matrix multiplication kernels, compiled once per x86
//! vector width and dispatched at run time.
//!
//! All accumulating kernels use the `i-k-j` loop order — the innermost loop
//! is an AXPY over a contiguous row of the right operand, which
//! auto-vectorises well — wrapped in a BLIS-style blocking scheme:
//!
//! * rows are processed in panels of [`MC`] (the `par_chunks_mut` grain;
//!   the in-repo rayon shim runs the panels sequentially),
//! * the reduction dimension in panels of [`KC`],
//! * the output columns in panels of [`NC`],
//!
//! so the `KC × NC` panel of `B` stays resident in L1/L2 while every row of
//! the `MC` panel consumes it, instead of streaming all of `B` from memory
//! once per output row. Within a panel the k-loop is unrolled 4× so each
//! pass over the C row folds in four rank-1 updates (4× less C traffic).
//!
//! **Bit-exactness contract**: for every output element, the partial
//! products are accumulated in ascending-`k` order, one sequential chain per
//! element, exactly like the textbook three-loop kernel. Blocking changes
//! *when* each product is added, never the per-element order — so results
//! are bit-identical to the naive kernel for all inputs, which
//! `tests/kernel_differential.rs` asserts. The one caveat is NaN encodings:
//! IEEE leaves a NaN result's sign/payload unspecified and LLVM exploits
//! that freedom differently across opt levels, so the differential tests
//! demand exact bits for every non-NaN lane and canonicalize NaNs. (This
//! is also why there is no zero-skip: `if a != 0` shortcuts would diverge
//! on `0 × ∞ = NaN` inputs and defeat vectorisation.)
//!
//! Three layout variants cover everything the backward passes need without
//! ever materialising a transpose:
//!
//! * [`matmul`]      — `C = A · B`       with `A: [m,k]`, `B: [k,n]`
//! * [`matmul_at_b`] — `C = Aᵀ · B`      with `A: [k,m]`, `B: [k,n]` (weight grads)
//! * [`matmul_a_bt`] — `C = A · Bᵀ`      with `A: [m,k]`, `B: [n,k]` (input grads)
//!
//! `matmul_a_bt` is dot-product shaped rather than AXPY shaped: each
//! element is one [`dot`] with eight lane chains, a sequential tail and a
//! fixed combine. It differs from the textbook loop's rounding (so it is
//! compared with them under a tolerance) but its own order is fixed, and
//! `tests/kernel_differential.rs` pins it bit for bit against a reference
//! that reproduces that order.
//!
//! Batched versions ([`bmm`], [`bmm_at_b`], [`bmm_a_bt`]) operate on 3-D
//! tensors `[batch, ·, ·]`, parallelise over the batch dimension (the
//! natural grain for multi-head attention) and route each slab through the
//! same blocked cores, so the 2-D and batched kernels cannot drift apart.
//!
//! **Vector-width dispatch.** The three panel bodies (with [`axpy`],
//! [`axpy4`] and [`dot`] inlined into them) are written once and compiled
//! twice on x86-64: as an `avx2` clone via `#[target_feature]` and as the
//! portable baseline (SSE2). [`Isa`] picks AVX2 when the CPU reports it,
//! once per process; other targets build only the portable body. Both
//! levels give the same bits: Rust never contracts `a * b + c` into an FMA,
//! and vectorising only changes how many *independent* elements share a
//! register, never the operation order within one element's chain. The
//! AVX2 clone is tested against the portable body below.

use crate::Tensor;
use rayon::prelude::*;
use std::sync::OnceLock;

/// Below this many output elements the kernels run sequentially; the rayon
/// fork/join overhead would dominate otherwise.
const PAR_THRESHOLD: usize = 32 * 32;

/// Output rows per parallel panel (the rayon work grain).
const MC: usize = 32;
/// Reduction-dimension panel: `KC × NC` of `B` is the cache-resident block.
const KC: usize = 64;
/// Output-column panel; `KC * NC * 4` bytes ≈ 32 KiB ≈ L1.
const NC: usize = 128;

/// Instruction-set level a panel body is compiled for.
///
/// Invariant: a value other than `Portable` exists only if the running CPU
/// supports that level. It is built only by [`Isa::supported`], which
/// checks with `is_x86_feature_detected!`; the dispatchers' `unsafe` calls
/// rely on this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// Every level this CPU can run, narrowest first.
    fn supported() -> Vec<Isa> {
        #[allow(unused_mut)]
        let mut levels = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            levels.push(Isa::Avx2);
        }
        levels
    }

    /// The widest supported level, detected on first use.
    fn detected() -> Isa {
        static LEVEL: OnceLock<Isa> = OnceLock::new();
        *LEVEL.get_or_init(|| *Isa::supported().last().expect("portable is always supported"))
    }

    fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
        }
    }
}

/// The instruction-set level the GEMM kernels run at in this process:
/// `"avx2"` or `"portable"`. Both levels produce the same bits; this names
/// which one the measured speed belongs to.
pub fn kernel_isa() -> &'static str {
    Isa::detected().name()
}

/// For each panel body, emits its `avx2` clone (x86-64 only) and a
/// dispatcher of the same signature plus a leading [`Isa`]. The clone calls
/// the `#[inline(always)]` body, so it is the one source compiled with
/// wider vectors.
macro_rules! dispatch_per_isa {
    ($(fn $name:ident => $body:ident($($arg:ident: $ty:ty),* $(,)?);)+) => {
        #[cfg(target_arch = "x86_64")]
        mod avx2 {
            $(
                #[target_feature(enable = "avx2")]
                pub(super) fn $body($($arg: $ty),*) {
                    super::$body($($arg),*)
                }
            )+
        }

        $(
            fn $name(isa: Isa, $($arg: $ty),*) {
                match isa {
                    Isa::Portable => $body($($arg),*),
                    // SAFETY: `Isa::Avx2` exists only when the CPU reports
                    // avx2 (invariant on `Isa`).
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx2 => unsafe { avx2::$body($($arg),*) },
                }
            }
        )+
    };
}

dispatch_per_isa! {
    fn matmul_panel => matmul_panel_body(
        a: &[f32], b: &[f32], cpanel: &mut [f32], i0: usize, k: usize, n: usize,
    );
    fn matmul_at_b_panel => matmul_at_b_panel_body(
        a: &[f32], b: &[f32], cpanel: &mut [f32], i0: usize, kmn: [usize; 3],
    );
    fn matmul_a_bt_panel => matmul_a_bt_panel_body(
        a: &[f32], b: &[f32], cpanel: &mut [f32], i0: usize, k: usize, n: usize,
    );
}

#[inline(always)]
fn axpy(acc: &mut [f32], x: f32, row: &[f32]) {
    debug_assert_eq!(acc.len(), row.len());
    for (a, &r) in acc.iter_mut().zip(row.iter()) {
        *a += x * r;
    }
}

/// Four rank-1 updates folded into one pass over the C row. Each element
/// still accumulates its four products in ascending-k order, so the result
/// is bit-identical to four sequential [`axpy`] calls.
#[inline(always)]
fn axpy4(acc: &mut [f32], x: [f32; 4], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32]) {
    let n = acc.len();
    let (r0, r1, r2, r3) = (&r0[..n], &r1[..n], &r2[..n], &r3[..n]);
    for j in 0..n {
        let mut v = acc[j];
        v += x[0] * r0[j];
        v += x[1] * r1[j];
        v += x[2] * r2[j];
        v += x[3] * r3[j];
        acc[j] = v;
    }
}

/// Blocked `C += A · B` over the rows of `cpanel` (starting at row `i0` of
/// `A`/`C`): the sequential per-panel body shared by [`matmul_into`] and
/// [`bmm`].
#[inline(always)]
fn matmul_panel_body(a: &[f32], b: &[f32], cpanel: &mut [f32], i0: usize, k: usize, n: usize) {
    let rows = cpanel.len() / n;
    let mut kc = 0;
    while kc < k {
        let kend = (kc + KC).min(k);
        let mut jc = 0;
        while jc < n {
            let jend = (jc + NC).min(n);
            for r in 0..rows {
                let arow = &a[(i0 + r) * k..(i0 + r + 1) * k];
                let crow = &mut cpanel[r * n + jc..r * n + jend];
                let mut kk = kc;
                while kk + 4 <= kend {
                    axpy4(
                        crow,
                        [arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]],
                        &b[kk * n + jc..kk * n + jend],
                        &b[(kk + 1) * n + jc..(kk + 1) * n + jend],
                        &b[(kk + 2) * n + jc..(kk + 2) * n + jend],
                        &b[(kk + 3) * n + jc..(kk + 3) * n + jend],
                    );
                    kk += 4;
                }
                while kk < kend {
                    axpy(crow, arow[kk], &b[kk * n + jc..kk * n + jend]);
                    kk += 1;
                }
            }
            jc = jend;
        }
        kc = kend;
    }
}

/// Blocked `C += Aᵀ · B` panel body (`A: [k,m]` accessed with stride `m`);
/// `[k, m, n]` are the problem dimensions.
#[inline(always)]
fn matmul_at_b_panel_body(
    a: &[f32],
    b: &[f32],
    cpanel: &mut [f32],
    i0: usize,
    [k, m, n]: [usize; 3],
) {
    let rows = cpanel.len() / n;
    let mut kc = 0;
    while kc < k {
        let kend = (kc + KC).min(k);
        let mut jc = 0;
        while jc < n {
            let jend = (jc + NC).min(n);
            for r in 0..rows {
                let i = i0 + r;
                let crow = &mut cpanel[r * n + jc..r * n + jend];
                let mut kk = kc;
                while kk + 4 <= kend {
                    axpy4(
                        crow,
                        [a[kk * m + i], a[(kk + 1) * m + i], a[(kk + 2) * m + i], a[(kk + 3) * m + i]],
                        &b[kk * n + jc..kk * n + jend],
                        &b[(kk + 1) * n + jc..(kk + 1) * n + jend],
                        &b[(kk + 2) * n + jc..(kk + 2) * n + jend],
                        &b[(kk + 3) * n + jc..(kk + 3) * n + jend],
                    );
                    kk += 4;
                }
                while kk < kend {
                    axpy(crow, a[kk * m + i], &b[kk * n + jc..kk * n + jend]);
                    kk += 1;
                }
            }
            jc = jend;
        }
        kc = kend;
    }
}

/// Dot-product panel body for `C = A · Bᵀ` (rows of both operands are
/// contiguous; each output element is one [`dot`]).
#[inline(always)]
fn matmul_a_bt_panel_body(a: &[f32], b: &[f32], cpanel: &mut [f32], i0: usize, k: usize, n: usize) {
    for (r, crow) in cpanel.chunks_exact_mut(n).enumerate() {
        let arow = &a[(i0 + r) * k..(i0 + r + 1) * k];
        for (j, cv) in crow.iter_mut().enumerate() {
            *cv = dot(arow, &b[j * k..(j + 1) * k]);
        }
    }
}

/// Runs `panel(cpanel, i0)` over the `MC`-row panels of `C: [m, n]`
/// (`i0` = the panel's first row), or over all of `C` at once when it is
/// too small to split.
fn for_each_row_panel(
    c: &mut [f32],
    m: usize,
    n: usize,
    panel: impl Fn(&mut [f32], usize) + Sync + Send,
) {
    if m * n >= PAR_THRESHOLD && m > 1 {
        c.par_chunks_mut(MC * n).enumerate().for_each(|(ci, cpanel)| panel(cpanel, ci * MC));
    } else if n > 0 {
        panel(c, 0);
    }
}

/// `C = A · B` for `A: [m,k]`, `B: [k,n]`.
///
/// # Panics
/// Panics if the inner dimensions disagree or either operand is not 2-D.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul: A must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul: B must be 2-D");
    let (m, k) = (a.dim(0), a.dim(1));
    let (kb, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, kb, "matmul: inner dims {} vs {}", k, kb);
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into(a.data(), b.data(), out.data_mut(), m, k, n);
    out
}

/// Raw-slice core of [`matmul`]; also used by the batched variant.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let isa = Isa::detected();
    for_each_row_panel(c, m, n, |cpanel, i0| matmul_panel(isa, a, b, cpanel, i0, k, n));
}

/// `C = Aᵀ · B` for `A: [k,m]`, `B: [k,n]` → `C: [m,n]`.
///
/// This is the weight-gradient shape `dW = Xᵀ · dY` without materialising
/// `Xᵀ`. Parallelises over output-row panels; each output row `i`
/// accumulates `sum_k A[k,i] * B[k,:]`.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_at_b: A must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul_at_b: B must be 2-D");
    let (k, m) = (a.dim(0), a.dim(1));
    let (kb, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, kb, "matmul_at_b: inner dims {} vs {}", k, kb);
    let mut out = Tensor::zeros(&[m, n]);
    matmul_at_b_into(a.data(), b.data(), out.data_mut(), k, m, n);
    out
}

/// Raw-slice core of [`matmul_at_b`].
pub fn matmul_at_b_into(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let isa = Isa::detected();
    for_each_row_panel(c, m, n, |cpanel, i0| matmul_at_b_panel(isa, a, b, cpanel, i0, [k, m, n]));
}

/// `C = A · Bᵀ` for `A: [m,k]`, `B: [n,k]` → `C: [m,n]`.
///
/// This is the input-gradient shape `dX = dY · Wᵀ` (with `W: [n,k]` stored
/// row-major as out×in) and also the attention-score shape `Q · Kᵀ`.
/// Each output element is a dot product of two contiguous rows.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_a_bt: A must be 2-D");
    assert_eq!(b.ndim(), 2, "matmul_a_bt: B must be 2-D");
    let (m, k) = (a.dim(0), a.dim(1));
    let (n, kb) = (b.dim(0), b.dim(1));
    assert_eq!(k, kb, "matmul_a_bt: inner dims {} vs {}", k, kb);
    let mut out = Tensor::zeros(&[m, n]);
    matmul_a_bt_into(a.data(), b.data(), out.data_mut(), m, k, n);
    out
}

/// `Σ x[i]·y[i]` in a fixed order: lane `l` of eight accumulates every
/// `i ≡ l (mod 8)` of the whole 8-chunks in ascending order, the remainder
/// forms a sequential `tail`, and the result is
/// `((((s0+s4)+(s1+s5))+(s2+s6))+(s3+s7))+tail`.
#[inline(always)]
fn dot(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    // Eight partial sums give the optimiser independent accumulation
    // chains wide enough for one f32x8 vector register.
    let mut s = [0.0f32; 8];
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact(8);
    for (xv, yv) in (&mut xc).zip(&mut yc) {
        for l in 0..8 {
            s[l] += xv[l] * yv[l];
        }
    }
    let mut tail = 0.0f32;
    for (xv, yv) in xc.remainder().iter().zip(yc.remainder().iter()) {
        tail += xv * yv;
    }
    (s[0] + s[4]) + (s[1] + s[5]) + (s[2] + s[6]) + (s[3] + s[7]) + tail
}

/// Raw-slice core of [`matmul_a_bt`].
pub fn matmul_a_bt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let isa = Isa::detected();
    for_each_row_panel(c, m, n, |cpanel, i0| matmul_a_bt_panel(isa, a, b, cpanel, i0, k, n));
}

fn batch_dims3(t: &Tensor, what: &str) -> (usize, usize, usize) {
    assert_eq!(t.ndim(), 3, "{what}: expected a 3-D tensor, got {:?}", t.shape());
    (t.dim(0), t.dim(1), t.dim(2))
}

/// `[bs, m, n]` output with `slab(bi, cslab)` filling each `[m, n]` slab,
/// one batch entry per parallel task. Empty slabs (`m` or `n` zero) leave
/// an empty output, as the 2-D kernels do.
fn batched(
    bs: usize,
    m: usize,
    n: usize,
    slab: impl Fn(usize, &mut [f32]) + Sync + Send,
) -> Tensor {
    let mut out = Tensor::zeros(&[bs, m, n]);
    if m * n > 0 {
        out.data_mut().par_chunks_mut(m * n).enumerate().for_each(|(bi, cslab)| slab(bi, cslab));
    }
    out
}

/// Batched `C[b] = A[b] · B[b]` for `A: [bs,m,k]`, `B: [bs,k,n]`.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    let (bs, m, k) = batch_dims3(a, "bmm A");
    let (bs2, kb, n) = batch_dims3(b, "bmm B");
    assert_eq!(bs, bs2, "bmm: batch dims {} vs {}", bs, bs2);
    assert_eq!(k, kb, "bmm: inner dims {} vs {}", k, kb);
    let isa = Isa::detected();
    batched(bs, m, n, |bi, cslab| {
        let aslab = &a.data()[bi * m * k..(bi + 1) * m * k];
        let bslab = &b.data()[bi * k * n..(bi + 1) * k * n];
        matmul_panel(isa, aslab, bslab, cslab, 0, k, n);
    })
}

/// Batched `C[b] = A[b] · B[b]ᵀ` for `A: [bs,m,k]`, `B: [bs,n,k]`.
pub fn bmm_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (bs, m, k) = batch_dims3(a, "bmm_a_bt A");
    let (bs2, n, kb) = batch_dims3(b, "bmm_a_bt B");
    assert_eq!(bs, bs2, "bmm_a_bt: batch dims {} vs {}", bs, bs2);
    assert_eq!(k, kb, "bmm_a_bt: inner dims {} vs {}", k, kb);
    let isa = Isa::detected();
    batched(bs, m, n, |bi, cslab| {
        let aslab = &a.data()[bi * m * k..(bi + 1) * m * k];
        let bslab = &b.data()[bi * n * k..(bi + 1) * n * k];
        matmul_a_bt_panel(isa, aslab, bslab, cslab, 0, k, n);
    })
}

/// Batched `C[b] = A[b]ᵀ · B[b]` for `A: [bs,k,m]`, `B: [bs,k,n]`.
pub fn bmm_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (bs, k, m) = batch_dims3(a, "bmm_at_b A");
    let (bs2, kb, n) = batch_dims3(b, "bmm_at_b B");
    assert_eq!(bs, bs2, "bmm_at_b: batch dims {} vs {}", bs, bs2);
    assert_eq!(k, kb, "bmm_at_b: inner dims {} vs {}", k, kb);
    let isa = Isa::detected();
    batched(bs, m, n, |bi, cslab| {
        let aslab = &a.data()[bi * k * m..(bi + 1) * k * m];
        let bslab = &b.data()[bi * k * n..(bi + 1) * k * n];
        matmul_at_b_panel(isa, aslab, bslab, cslab, 0, [k, m, n]);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.at(&[i, kk]) * b.at(&[kk, j]);
                }
                out.set(&[i, j], s);
            }
        }
        out
    }

    fn seq_tensor(shape: &[usize], offset: f32) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|i| (i as f32) * 0.1 + offset).collect())
    }

    #[test]
    fn matmul_matches_naive_bitwise() {
        let a = seq_tensor(&[5, 7], 0.3);
        let b = seq_tensor(&[7, 4], -1.0);
        let fast = matmul(&a, &b);
        let slow = naive_matmul(&a, &b);
        assert_eq!(
            fast.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            slow.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "blocked kernel must preserve the per-element accumulation order"
        );
    }

    #[test]
    fn matmul_identity() {
        let a = seq_tensor(&[4, 4], 1.0);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            eye.set(&[i, i], 1.0);
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&eye, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_large_parallel_path() {
        // Big enough to cross PAR_THRESHOLD, KC and NC and exercise the
        // panel boundaries (non-multiples of every block size).
        let a = seq_tensor(&[67, 70], 0.01);
        let b = seq_tensor(&[70, 131], -0.02);
        let fast = matmul(&a, &b);
        let slow = naive_matmul(&a, &b);
        assert_eq!(
            fast.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            slow.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let a = seq_tensor(&[6, 3], 0.5);
        let b = seq_tensor(&[6, 5], -0.2);
        let fused = matmul_at_b(&a, &b);
        let explicit = matmul(&a.transpose2(), &b);
        assert!(fused.max_abs_diff(&explicit) < 1e-4);
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let a = seq_tensor(&[4, 6], 0.5);
        let b = seq_tensor(&[3, 6], -0.2);
        let fused = matmul_a_bt(&a, &b);
        let explicit = matmul(&a, &b.transpose2());
        assert!(fused.max_abs_diff(&explicit) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_rejects_mismatch() {
        let _ = matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = seq_tensor(&[3, 4, 5], 0.1);
        let b = seq_tensor(&[3, 5, 2], -0.3);
        let out = bmm(&a, &b);
        for bi in 0..3 {
            let asl = Tensor::from_vec(&[4, 5], a.data()[bi * 20..(bi + 1) * 20].to_vec());
            let bsl = Tensor::from_vec(&[5, 2], b.data()[bi * 10..(bi + 1) * 10].to_vec());
            let expect = matmul(&asl, &bsl);
            let got = Tensor::from_vec(&[4, 2], out.data()[bi * 8..(bi + 1) * 8].to_vec());
            assert!(got.max_abs_diff(&expect) < 1e-4);
        }
    }

    #[test]
    fn bmm_a_bt_matches_per_batch() {
        let a = seq_tensor(&[2, 3, 4], 0.2);
        let b = seq_tensor(&[2, 5, 4], -0.1);
        let out = bmm_a_bt(&a, &b);
        for bi in 0..2 {
            let asl = Tensor::from_vec(&[3, 4], a.data()[bi * 12..(bi + 1) * 12].to_vec());
            let bsl = Tensor::from_vec(&[5, 4], b.data()[bi * 20..(bi + 1) * 20].to_vec());
            let expect = matmul_a_bt(&asl, &bsl);
            let got = Tensor::from_vec(&[3, 5], out.data()[bi * 15..(bi + 1) * 15].to_vec());
            assert!(got.max_abs_diff(&expect) < 1e-4);
        }
    }

    #[test]
    fn bmm_at_b_matches_per_batch() {
        let a = seq_tensor(&[2, 4, 3], 0.2);
        let b = seq_tensor(&[2, 4, 5], -0.1);
        let out = bmm_at_b(&a, &b);
        for bi in 0..2 {
            let asl = Tensor::from_vec(&[4, 3], a.data()[bi * 12..(bi + 1) * 12].to_vec());
            let bsl = Tensor::from_vec(&[4, 5], b.data()[bi * 20..(bi + 1) * 20].to_vec());
            let expect = matmul_at_b(&asl, &bsl);
            let got = Tensor::from_vec(&[3, 5], out.data()[bi * 15..(bi + 1) * 15].to_vec());
            assert!(got.max_abs_diff(&expect) < 1e-4);
        }
    }

    #[test]
    fn batched_kernels_accept_empty_slabs() {
        // a zero m or n used to reach `par_chunks_mut(0)` and panic
        let (a, b) = (Tensor::zeros(&[2, 0, 3]), Tensor::zeros(&[2, 3, 4]));
        assert_eq!(bmm(&a, &b).shape(), &[2, 0, 4]);
        let (a, b) = (Tensor::zeros(&[2, 3, 0]), Tensor::zeros(&[2, 3, 4]));
        assert_eq!(bmm_at_b(&a, &b).shape(), &[2, 0, 4]);
        let (a, b) = (Tensor::zeros(&[2, 5, 3]), Tensor::zeros(&[2, 0, 3]));
        assert_eq!(bmm_a_bt(&a, &b).shape(), &[2, 5, 0]);
    }

    #[test]
    fn dot_matches_reference() {
        let x: Vec<f32> = (0..13).map(|i| i as f32 * 0.5).collect();
        let y: Vec<f32> = (0..13).map(|i| 1.0 - i as f32 * 0.25).collect();
        let reference: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - reference).abs() < 1e-4);
    }

    #[test]
    fn zero_times_infinity_is_nan_like_the_reference() {
        // the old kernels skipped a == 0.0 as an optimisation, silently
        // turning 0 × ∞ into 0 instead of NaN; the blocked kernels follow
        // IEEE 754 like the naive loop does
        let a = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]);
        let b = Tensor::from_vec(&[2, 1], vec![f32::INFINITY, 1.0]);
        assert!(matmul(&a, &b).data()[0].is_nan());
    }

    // -----------------------------------------------------------------------
    // Every instruction-set level ≡ the portable body.

    fn canonical_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { 0x7FC0_0000 } else { x.to_bits() }).collect()
    }

    /// A tensor of normals, or, with `specials`, one where a quarter of
    /// the entries are ±0, ±∞, NaN, denormal or near the f32 range ends.
    fn filled(rng: &mut crate::TensorRng, shape: &[usize], specials: bool) -> Tensor {
        const SPECIALS: [f32; 9] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 2.0, // denormal
            1e-38,
            1e38,
        ];
        let len = shape.iter().product();
        let data = (0..len)
            .map(|_| {
                if specials && rng.below(4) == 0 {
                    SPECIALS[rng.below(SPECIALS.len())]
                } else {
                    rng.normal()
                }
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    /// Runs the three panel bodies at every level the host supports, once
    /// split into row panels as the `*_into` entry points run them and once
    /// over the whole of `C` as the `bmm*` slabs run them, and asserts each
    /// level's output equals the portable body's bit for bit (NaNs
    /// canonicalised). Row and slab splitting happen outside the panels,
    /// so they cannot depend on the level.
    fn assert_levels_agree(m: usize, k: usize, n: usize, specials: bool) {
        let mut rng = crate::TensorRng::seed_from((m * 1_000_003 + k * 1009 + n) as u64);
        let a = filled(&mut rng, &[m, k], specials);
        let b = filled(&mut rng, &[k, n], specials);
        let at = filled(&mut rng, &[k, m], specials);
        let bt = filled(&mut rng, &[n, k], specials);
        let (a, b, at, bt) = (a.data(), b.data(), at.data(), bt.data());
        let run = |isa: Isa| {
            let mut outs = vec![vec![0.0f32; m * n]; 6];
            for_each_row_panel(&mut outs[0], m, n, |c, i0| matmul_panel(isa, a, b, c, i0, k, n));
            for_each_row_panel(&mut outs[1], m, n, |c, i0| {
                matmul_at_b_panel(isa, at, b, c, i0, [k, m, n])
            });
            for_each_row_panel(&mut outs[2], m, n, |c, i0| matmul_a_bt_panel(isa, a, bt, c, i0, k, n));
            matmul_panel(isa, a, b, &mut outs[3], 0, k, n);
            matmul_at_b_panel(isa, at, b, &mut outs[4], 0, [k, m, n]);
            matmul_a_bt_panel(isa, a, bt, &mut outs[5], 0, k, n);
            outs
        };
        let names = ["matmul", "matmul_at_b", "matmul_a_bt"];
        let portable = run(Isa::Portable);
        for isa in Isa::supported().into_iter().filter(|&isa| isa != Isa::Portable) {
            for (i, (want, got)) in portable.iter().zip(run(isa)).enumerate() {
                let how = if i < 3 { "row panels" } else { "whole C" };
                assert_eq!(
                    canonical_bits(want),
                    canonical_bits(&got),
                    "{} {m}x{k}x{n} over {how} (specials {specials}): {isa:?} differs from portable",
                    names[i % 3]
                );
            }
        }
    }

    #[test]
    fn kernel_isa_names_the_widest_supported_level() {
        let widest = *Isa::supported().last().unwrap();
        assert_eq!(Isa::detected(), widest);
        assert_eq!(kernel_isa(), widest.name());
        assert!(["portable", "avx2"].contains(&kernel_isa()));
    }

    #[test]
    fn every_level_matches_portable_on_lane_and_k_tails() {
        // n = 17..=31 puts n mod 16 through 1..=15 (two 256-bit registers'
        // tail) and k = 5..=19 puts k mod 4 (axpy4) and k mod 8 (dot)
        // through every remainder; n = 1..=15 covers rows shorter than
        // two registers
        for t in 1..16 {
            assert_levels_agree(t % 5 + 1, 4 + t, 16 + t, false);
            assert_levels_agree(2, t, t, false);
        }
    }

    #[test]
    fn every_level_matches_portable_across_tile_boundaries() {
        // below, at and above MC = 32, KC = 64 and NC = 128
        for (m, k, n) in [(31, 63, 127), (32, 64, 128), (33, 65, 129), (65, 129, 257), (1, 200, 3)] {
            assert_levels_agree(m, k, n, false);
        }
    }

    #[test]
    fn every_level_matches_portable_on_benchmark_linear_shapes() {
        // the MAE encoder/decoder Linear shapes of the benchmark (rows x
        // in x out) and their transposes, as the backward pass uses them
        for (m, k, n) in [
            (544, 64, 192),
            (544, 64, 256),
            (2080, 32, 96),
            (2080, 32, 128),
            (544, 192, 64),
            (544, 256, 64),
            (2080, 96, 32),
            (2080, 128, 32),
            (64, 544, 192),
            (32, 2080, 128),
        ] {
            assert_levels_agree(m, k, n, false);
        }
    }

    #[test]
    fn every_level_matches_portable_on_head_dim_8_slabs() {
        // attention at head dim 8: scores 65x8x65, context 65x65x8, and
        // the 17-token decoder slabs
        for (m, k, n) in [(65, 8, 65), (65, 65, 8), (17, 17, 8), (17, 8, 17)] {
            assert_levels_agree(m, k, n, false);
        }
    }

    #[test]
    fn every_level_matches_portable_on_ieee_edge_values() {
        for (m, k, n) in [(3, 5, 17), (7, 13, 31), (33, 65, 129), (65, 8, 65), (9, 70, 140)] {
            assert_levels_agree(m, k, n, true);
        }
    }
}
