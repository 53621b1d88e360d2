//! Shape replay for the `tensor` and `nn` layers.
//!
//! Each public `nn` module is run forward (and backward, for training) at
//! exactly the shapes one step of the workload issues, and the GEMMs those
//! modules call are timed on their own at the same shapes through
//! `geofm_tensor`'s public kernels. FLOPs follow the `geofm_vit::flops`
//! convention (one multiply-accumulate = 2 FLOPs, backward = 2× forward),
//! so `achieved ÷ matmul` rows can later calibrate a host cost model.

use geofm_mae::MaeConfig;
use geofm_nn::{AdamW, LayerNorm, Linear, Mlp, MultiHeadAttention, Optimizer, PatchEmbed};
use geofm_tensor::{bmm, bmm_a_bt, bmm_at_b, matmul, matmul_a_bt, matmul_at_b, TensorRng};
use geofm_vit::VitConfig;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per shape; the median is kept.
const REPS: usize = 7;

/// A run of identical transformer blocks.
#[derive(Debug, Clone, Copy)]
struct Stack {
    blocks: usize,
    batch: usize,
    tokens: usize,
    width: usize,
    heads: usize,
    mlp: usize,
}

impl Stack {
    fn rows(&self) -> usize {
        self.batch * self.tokens
    }
}

/// Every layer call one step makes, by shape.
#[derive(Debug, Clone)]
pub struct StepShapes {
    stacks: Vec<Stack>,
    /// Final LayerNorms outside the blocks: `(rows, dim)`.
    final_norms: Vec<(usize, usize)>,
    /// `(batch, img, patch, channels, width)`.
    patch_embed: (usize, usize, usize, usize, usize),
    /// Stand-alone projections: `(rows, in, out)`.
    linears: Vec<(usize, usize, usize)>,
    /// Elements the optimizer updates per step (0 = inference).
    adamw_elems: usize,
    backward: bool,
}

impl StepShapes {
    /// One MAE training step at `batch` images, the optimizer updating
    /// `adamw_elems` elements (the whole model, or one rank's shard).
    pub fn mae_train(cfg: &MaeConfig, batch: usize, adamw_elems: usize) -> Self {
        let enc = &cfg.encoder;
        let t = enc.tokens();
        let v = geofm_mae::MaskSampler::new(t, cfg.mask_ratio).visible();
        let dw = cfg.dec_width;
        Self {
            stacks: vec![
                Stack {
                    blocks: enc.depth,
                    batch,
                    tokens: v,
                    width: enc.width,
                    heads: enc.heads,
                    mlp: enc.mlp,
                },
                Stack {
                    blocks: cfg.dec_depth,
                    batch,
                    tokens: t,
                    width: dw,
                    heads: cfg.dec_heads,
                    mlp: 4 * dw,
                },
            ],
            final_norms: vec![(batch * v, enc.width), (batch * t, dw)],
            patch_embed: (batch, enc.img, enc.patch, enc.channels, enc.width),
            linears: vec![(batch * v, enc.width, dw), (batch * t, dw, enc.patch_dim())],
            adamw_elems,
            backward: true,
        }
    }

    /// One inference batch of `batch` tiles through the full token grid.
    pub fn vit_inference(cfg: &VitConfig, batch: usize) -> Self {
        let t = cfg.tokens();
        Self {
            stacks: vec![Stack {
                blocks: cfg.depth,
                batch,
                tokens: t,
                width: cfg.width,
                heads: cfg.heads,
                mlp: cfg.mlp,
            }],
            final_norms: vec![(batch * t, cfg.width)],
            patch_embed: (batch, cfg.img, cfg.patch, cfg.channels, cfg.width),
            linears: Vec::new(),
            adamw_elems: 0,
            backward: false,
        }
    }
}

/// Per-step time in one layer kind, summed over its calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub fwd_ms: f64,
    pub bwd_ms: f64,
}

impl LayerTime {
    fn add(&mut self, other: LayerTime, calls: usize) {
        self.fwd_ms += other.fwd_ms * calls as f64;
        self.bwd_ms += other.bwd_ms * calls as f64;
    }

    pub fn total_ms(&self) -> f64 {
        self.fwd_ms + self.bwd_ms
    }
}

/// GEMM FLOPs and time, summed over calls.
#[derive(Debug, Default, Clone, Copy)]
struct GemmTally {
    flops: f64,
    secs: f64,
}

impl GemmTally {
    fn add(&mut self, other: GemmTally, calls: usize) {
        self.flops += other.flops * calls as f64;
        self.secs += other.secs * calls as f64;
    }

    fn gflops(&self) -> f64 {
        self.flops / self.secs / 1e9
    }
}

/// What the replay measured for one step's shapes.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub attention: LayerTime,
    pub mlp: LayerTime,
    pub layernorm: LayerTime,
    pub patch_embed: LayerTime,
    pub linear: LayerTime,
    pub adamw_ms: f64,
    attention_flops: f64,
    mlp_flops: f64,
    layernorm_bytes: f64,
    adamw_bytes: f64,
    attention_gemm: GemmTally,
    mlp_gemm: GemmTally,
    all_gemm: GemmTally,
}

impl Replay {
    /// Time in the replayed layers (forward + backward), ms — what the
    /// composed step's glue share is measured against.
    pub fn layers_ms(&self) -> f64 {
        [
            self.attention,
            self.mlp,
            self.layernorm,
            self.patch_embed,
            self.linear,
        ]
        .iter()
        .map(LayerTime::total_ms)
        .sum()
    }

    /// Write the `tensor.*` and `nn.*` per-layer metrics.
    pub fn report(&self, r: &mut crate::Report) {
        let gflops = |flops: f64, t: LayerTime| flops / (t.total_ms() / 1e3) / 1e9;
        r.set("tensor.matmul.gflops", self.all_gemm.gflops());
        r.set("nn.attention.fwd_ms", self.attention.fwd_ms);
        r.set("nn.attention.bwd_ms", self.attention.bwd_ms);
        r.set(
            "nn.attention.vs_matmul",
            gflops(self.attention_flops, self.attention) / self.attention_gemm.gflops(),
        );
        r.set("nn.mlp.fwd_ms", self.mlp.fwd_ms);
        r.set("nn.mlp.bwd_ms", self.mlp.bwd_ms);
        r.set(
            "nn.mlp.vs_matmul",
            gflops(self.mlp_flops, self.mlp) / self.mlp_gemm.gflops(),
        );
        r.set("nn.layernorm.fwd_ms", self.layernorm.fwd_ms);
        r.set("nn.layernorm.bwd_ms", self.layernorm.bwd_ms);
        r.set(
            "nn.layernorm.gbps",
            self.layernorm_bytes / (self.layernorm.total_ms() / 1e3) / 1e9,
        );
        r.set("nn.patch_embed.fwd_ms", self.patch_embed.fwd_ms);
        r.set("nn.patch_embed.bwd_ms", self.patch_embed.bwd_ms);
        r.set("nn.linear.fwd_ms", self.linear.fwd_ms);
        r.set("nn.linear.bwd_ms", self.linear.bwd_ms);
        if self.adamw_ms > 0.0 {
            r.set("nn.adamw.step_ms", self.adamw_ms);
            r.set(
                "nn.adamw.gbps",
                self.adamw_bytes / (self.adamw_ms / 1e3) / 1e9,
            );
        }
    }
}

/// Median wall time of `f` over [`REPS`] runs, seconds.
fn median_secs(mut f: impl FnMut()) -> f64 {
    median_secs_after(&mut (), |_| {}, |_| f())
}

/// [`median_secs`] of `f(state)`, with `prep(state)` run untimed before
/// each call (e.g. the forward whose cache a backward consumes).
fn median_secs_after<S>(
    state: &mut S,
    mut prep: impl FnMut(&mut S),
    mut f: impl FnMut(&mut S),
) -> f64 {
    prep(state);
    f(state); // warm caches and lazily sized buffers
    let mut t: Vec<f64> = (0..REPS)
        .map(|_| {
            prep(state);
            let t0 = Instant::now();
            f(state);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    crate::stats::median(&t)
}

/// The matrix products the modules issue, by kernel.
#[derive(Debug, Clone, Copy)]
enum Gemm {
    /// `[m,k]·[n,k]ᵀ` (Linear forward).
    ABt { m: usize, k: usize, n: usize },
    /// `[k,m]ᵀ·[k,n]` (Linear weight gradient).
    AtB { k: usize, m: usize, n: usize },
    /// `[m,k]·[k,n]` (Linear input gradient).
    AB { m: usize, k: usize, n: usize },
    /// Batched `[b,m,k]·[b,n,k]ᵀ` (scores, dprobs).
    BmmABt {
        b: usize,
        m: usize,
        k: usize,
        n: usize,
    },
    /// Batched `[b,m,k]·[b,k,n]` (context, dq).
    Bmm {
        b: usize,
        m: usize,
        k: usize,
        n: usize,
    },
    /// Batched `[b,k,m]ᵀ·[b,k,n]` (dv, dk).
    BmmAtB {
        b: usize,
        k: usize,
        m: usize,
        n: usize,
    },
}

impl Gemm {
    fn flops(self) -> f64 {
        let (b, m, k, n) = match self {
            Gemm::ABt { m, k, n } | Gemm::AtB { k, m, n } | Gemm::AB { m, k, n } => (1, m, k, n),
            Gemm::BmmABt { b, m, k, n }
            | Gemm::Bmm { b, m, k, n }
            | Gemm::BmmAtB { b, k, m, n } => (b, m, k, n),
        };
        2.0 * (b * m * k * n) as f64
    }

    fn time(self, rng: &mut TensorRng) -> GemmTally {
        let mut r = |shape: &[usize]| rng.randn(shape, 1.0);
        let secs = match self {
            Gemm::ABt { m, k, n } => {
                let (a, b) = (r(&[m, k]), r(&[n, k]));
                median_secs(|| drop(black_box(matmul_a_bt(&a, &b))))
            }
            Gemm::AtB { k, m, n } => {
                let (a, b) = (r(&[k, m]), r(&[k, n]));
                median_secs(|| drop(black_box(matmul_at_b(&a, &b))))
            }
            Gemm::AB { m, k, n } => {
                let (a, b) = (r(&[m, k]), r(&[k, n]));
                median_secs(|| drop(black_box(matmul(&a, &b))))
            }
            Gemm::BmmABt { b, m, k, n } => {
                let (x, y) = (r(&[b, m, k]), r(&[b, n, k]));
                median_secs(|| drop(black_box(bmm_a_bt(&x, &y))))
            }
            Gemm::Bmm { b, m, k, n } => {
                let (x, y) = (r(&[b, m, k]), r(&[b, k, n]));
                median_secs(|| drop(black_box(bmm(&x, &y))))
            }
            Gemm::BmmAtB { b, k, m, n } => {
                let (x, y) = (r(&[b, k, m]), r(&[b, k, n]));
                median_secs(|| drop(black_box(bmm_at_b(&x, &y))))
            }
        };
        GemmTally {
            flops: self.flops(),
            secs,
        }
    }
}

/// The GEMMs of one `Linear` call of `[rows, inp] → [rows, out]`.
fn linear_gemms(rows: usize, inp: usize, out: usize, backward: bool) -> Vec<Gemm> {
    let mut g = vec![Gemm::ABt {
        m: rows,
        k: inp,
        n: out,
    }];
    if backward {
        g.push(Gemm::AtB {
            k: rows,
            m: out,
            n: inp,
        });
        g.push(Gemm::AB {
            m: rows,
            k: out,
            n: inp,
        });
    }
    g
}

fn tally(gemms: &[Gemm], rng: &mut TensorRng) -> GemmTally {
    let mut t = GemmTally::default();
    for g in gemms {
        t.add(g.time(rng), 1);
    }
    t
}

fn time_attention(s: &Stack, backward: bool, rng: &mut TensorRng) -> (LayerTime, GemmTally) {
    let (b, t, w, h) = (s.batch, s.tokens, s.width, s.heads);
    let mut attn = MultiHeadAttention::new(w, h, rng, "replay.attn");
    let x = rng.randn(&[b, t, w], 1.0);
    let dy = rng.randn(&[b, t, w], 1.0);
    let mut gemms = linear_gemms(b * t, w, 3 * w, backward);
    gemms.extend(linear_gemms(b * t, w, w, backward));
    let (bh, hd) = (b * h, w / h);
    gemms.push(Gemm::BmmABt {
        b: bh,
        m: t,
        k: hd,
        n: t,
    });
    gemms.push(Gemm::Bmm {
        b: bh,
        m: t,
        k: t,
        n: hd,
    });
    let time = if backward {
        gemms.push(Gemm::BmmABt {
            b: bh,
            m: t,
            k: hd,
            n: t,
        });
        gemms.push(Gemm::BmmAtB {
            b: bh,
            k: t,
            m: t,
            n: hd,
        });
        gemms.push(Gemm::Bmm {
            b: bh,
            m: t,
            k: t,
            n: hd,
        });
        gemms.push(Gemm::BmmAtB {
            b: bh,
            k: t,
            m: t,
            n: hd,
        });
        let fwd = median_secs(|| drop(black_box(attn.forward(&x))));
        let bwd = median_secs_after(
            &mut attn,
            |a| drop(a.forward(&x)),
            |a| drop(black_box(a.backward(&dy))),
        );
        LayerTime {
            fwd_ms: fwd * 1e3,
            bwd_ms: bwd * 1e3,
        }
    } else {
        let fwd = median_secs(|| drop(black_box(attn.forward_inference(&x))));
        LayerTime {
            fwd_ms: fwd * 1e3,
            bwd_ms: 0.0,
        }
    };
    (time, tally(&gemms, rng))
}

fn time_mlp(s: &Stack, backward: bool, rng: &mut TensorRng) -> (LayerTime, GemmTally) {
    let rows = s.rows();
    let mut mlp = Mlp::new(s.width, s.mlp, rng, "replay.mlp");
    let x = rng.randn(&[rows, s.width], 1.0);
    let dy = rng.randn(&[rows, s.width], 1.0);
    let mut gemms = linear_gemms(rows, s.width, s.mlp, backward);
    gemms.extend(linear_gemms(rows, s.mlp, s.width, backward));
    let time = if backward {
        let fwd = median_secs(|| drop(black_box(mlp.forward(&x))));
        let bwd = median_secs_after(
            &mut mlp,
            |m| drop(m.forward(&x)),
            |m| drop(black_box(m.backward(&dy))),
        );
        LayerTime {
            fwd_ms: fwd * 1e3,
            bwd_ms: bwd * 1e3,
        }
    } else {
        let fwd = median_secs(|| drop(black_box(mlp.forward_inference(&x))));
        LayerTime {
            fwd_ms: fwd * 1e3,
            bwd_ms: 0.0,
        }
    };
    (time, tally(&gemms, rng))
}

fn time_layernorm(rows: usize, dim: usize, backward: bool, rng: &mut TensorRng) -> LayerTime {
    let mut ln = LayerNorm::new(dim, "replay.ln");
    let x = rng.randn(&[rows, dim], 1.0);
    let dy = rng.randn(&[rows, dim], 1.0);
    if backward {
        let fwd = median_secs(|| drop(black_box(ln.forward(&x))));
        let bwd = median_secs_after(
            &mut ln,
            |l| drop(l.forward(&x)),
            |l| drop(black_box(l.backward(&dy))),
        );
        LayerTime {
            fwd_ms: fwd * 1e3,
            bwd_ms: bwd * 1e3,
        }
    } else {
        let fwd = median_secs(|| drop(black_box(ln.forward_inference(&x))));
        LayerTime {
            fwd_ms: fwd * 1e3,
            bwd_ms: 0.0,
        }
    }
}

fn time_linear(
    rows: usize,
    inp: usize,
    out: usize,
    backward: bool,
    rng: &mut TensorRng,
) -> LayerTime {
    let mut lin = Linear::new(inp, out, rng, "replay.linear");
    let x = rng.randn(&[rows, inp], 1.0);
    let dy = rng.randn(&[rows, out], 1.0);
    let fwd = median_secs(|| drop(black_box(lin.forward(&x))));
    let bwd = if backward {
        median_secs_after(
            &mut lin,
            |l| drop(l.forward(&x)),
            |l| drop(black_box(l.backward(&dy))),
        )
    } else {
        0.0
    };
    LayerTime {
        fwd_ms: fwd * 1e3,
        bwd_ms: bwd * 1e3,
    }
}

fn time_patch_embed(
    shape: (usize, usize, usize, usize, usize),
    backward: bool,
    rng: &mut TensorRng,
) -> LayerTime {
    let (b, img, patch, ch, w) = shape;
    let mut pe = PatchEmbed::new(img, patch, ch, w, rng, "replay.embed");
    let x = rng.randn(&[b, ch * img * img], 1.0);
    let dy = rng.randn(&[b, pe.tokens(), w], 1.0);
    if backward {
        let fwd = median_secs(|| drop(black_box(pe.forward(&x))));
        let bwd = median_secs_after(
            &mut pe,
            |p| drop(p.forward(&x)),
            |p| p.backward(black_box(&dy)),
        );
        LayerTime {
            fwd_ms: fwd * 1e3,
            bwd_ms: bwd * 1e3,
        }
    } else {
        let fwd = median_secs(|| drop(black_box(pe.forward_inference(&x))));
        LayerTime {
            fwd_ms: fwd * 1e3,
            bwd_ms: 0.0,
        }
    }
}

/// Replay every layer call of one step at `shapes`.
pub fn replay(shapes: &StepShapes, seed: u64) -> Replay {
    let mut rng = TensorRng::seed_from(seed ^ 0x5eed_1a7e);
    let bw = shapes.backward;
    let pass = if bw { 3.0 } else { 1.0 }; // backward = 2× forward FLOPs
    let mut r = Replay::default();
    for s in &shapes.stacks {
        let tok = s.rows() as f64;
        let (t, w, m) = (s.tokens as f64, s.width as f64, s.mlp as f64);

        let (at, ag) = time_attention(s, bw, &mut rng);
        r.attention.add(at, s.blocks);
        r.attention_gemm.add(ag, s.blocks);
        r.all_gemm.add(ag, s.blocks);
        // geofm_vit::flops: qkv + scores + context + proj + softmax
        let attn_fwd = tok * (2.0 * w * 3.0 * w + 4.0 * t * w + 2.0 * w * w + 5.0 * t);
        r.attention_flops += pass * attn_fwd * s.blocks as f64;

        let (mt, mg) = time_mlp(s, bw, &mut rng);
        r.mlp.add(mt, s.blocks);
        r.mlp_gemm.add(mg, s.blocks);
        r.all_gemm.add(mg, s.blocks);
        r.mlp_flops += pass * tok * 4.0 * w * m * s.blocks as f64;

        let lt = time_layernorm(s.rows(), s.width, bw, &mut rng);
        r.layernorm.add(lt, 2 * s.blocks);
        r.layernorm_bytes += ln_bytes(s.rows(), s.width, bw) * (2 * s.blocks) as f64;
    }
    for &(rows, dim) in &shapes.final_norms {
        r.layernorm.add(time_layernorm(rows, dim, bw, &mut rng), 1);
        r.layernorm_bytes += ln_bytes(rows, dim, bw);
    }
    r.patch_embed = time_patch_embed(shapes.patch_embed, bw, &mut rng);
    let (b, img, patch, ch, w) = shapes.patch_embed;
    let embed_rows = b * (img / patch) * (img / patch);
    r.all_gemm.add(
        tally(
            &linear_gemms(embed_rows, patch * patch * ch, w, bw),
            &mut rng,
        ),
        1,
    );
    for &(rows, inp, out) in &shapes.linears {
        r.linear.add(time_linear(rows, inp, out, bw, &mut rng), 1);
        r.all_gemm
            .add(tally(&linear_gemms(rows, inp, out, bw), &mut rng), 1);
    }
    if shapes.adamw_elems > 0 {
        let n = shapes.adamw_elems;
        let mut opt = AdamW::new(n, 0.05);
        let mut params = rng.randn(&[n], 0.02).data().to_vec();
        let grads = rng.randn(&[n], 1e-3).data().to_vec();
        r.adamw_ms = median_secs(|| opt.step(black_box(&mut params), &grads, 1e-4)) * 1e3;
        // reads param, grad, m, v; writes param, m, v
        r.adamw_bytes = 28.0 * n as f64;
    }
    r
}

/// Bytes a LayerNorm call moves: forward reads x, writes y; backward
/// reads dy and x, writes dx. Computed from tensor sizes.
fn ln_bytes(rows: usize, dim: usize, backward: bool) -> f64 {
    let elems = (rows * dim) as f64 * 4.0;
    if backward {
        5.0 * elems
    } else {
        2.0 * elems
    }
}
