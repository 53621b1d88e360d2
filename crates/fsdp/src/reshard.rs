//! Deterministic shard ⇄ global conversions for elastic resharding.
//!
//! An elastic world change (shrink after permanent rank loss, grow on
//! spare rejoin) re-partitions every flat parameter and optimizer buffer
//! from one [`FlatLayout`] onto another with a different shard-group size.
//! The conversion goes through the **global unpadded layout** — the
//! world-size-independent representation GEOFMCK3 checkpoints store — so
//! the same two primitives serve live in-memory resharding and
//! checkpoint-based recovery:
//!
//! * [`shards_to_global`] — assemble per-rank owned shards back into the
//!   global flat buffer, dropping padding;
//! * [`global_to_shard`] — carve one rank's owned shards out of the global
//!   buffer under a (possibly different) layout, re-deriving padding.
//!
//! Both are pure element moves (copies, never arithmetic), so a
//! global → shard → global round trip is bit-identical for every value
//! including NaN payloads, and resharding state then training at the new
//! world is indistinguishable from having started at that world with the
//! same state — the invariant `tests/elastic_reshard.rs` enforces.
//!
//! Padding is always a *derived* quantity (`unit_len.div_ceil(shard_n)`),
//! never stored: shards produced by `global_to_shard` zero-fill past each
//! unit's real end exactly like [`FlatLayout::extract_shard`], and
//! `shards_to_global` discards those lanes, so padding bytes can never
//! leak between world sizes.

use crate::flat::FlatLayout;

/// Assemble the global unpadded flat buffer from every rank's owned
/// shards under `layout`.
///
/// `shards[r]` must be shard-rank `r`'s concatenation of its per-unit
/// owned segments — exactly what [`global_to_shard`] produces and what the
/// engine's `export_state` holds — with length
/// [`FlatLayout::total_shard_len`]. Padding lanes are dropped.
///
/// # Panics
/// Panics if `shards.len() != layout.shard_n` or any shard has the wrong
/// length — a caller-side layout mixup, never a data-dependent condition.
pub fn shards_to_global(layout: &FlatLayout, shards: &[Vec<f32>]) -> Vec<f32> {
    assert_eq!(shards.len(), layout.shard_n, "one shard per shard rank");
    for (r, s) in shards.iter().enumerate() {
        assert_eq!(s.len(), layout.total_shard_len(), "shard {r} has the wrong length");
    }
    let mut global = vec![0.0f32; layout.total_len()];
    let mut shard_off = 0usize;
    for (u, unit) in layout.unit_ranges.iter().enumerate() {
        let s = layout.shard_len(u);
        for (r, shard) in shards.iter().enumerate() {
            // offset within the unit's padded buffer; lanes past the
            // unit's real end are padding and are dropped
            let start = (r * s).min(unit.len());
            let n = s.min(unit.len() - start);
            global[unit.start + start..][..n].copy_from_slice(&shard[shard_off..shard_off + n]);
        }
        shard_off += s;
    }
    global
}

/// Carve shard-rank `shard_rank`'s owned flat segments out of the global
/// unpadded buffer under `layout` (concatenated across units, zero-padded
/// past each unit's real end).
///
/// # Panics
/// Panics if `global.len() != layout.total_len()` or `shard_rank` is out
/// of range.
pub fn global_to_shard(layout: &FlatLayout, global: &[f32], shard_rank: usize) -> Vec<f32> {
    assert_eq!(global.len(), layout.total_len(), "global buffer length mismatch");
    let mut out = Vec::with_capacity(layout.total_shard_len());
    for u in 0..layout.num_units() {
        out.extend(layout.extract_shard(global, u, shard_rank));
    }
    out
}

/// Re-partition per-rank shards from one layout onto another in a single
/// call: assemble the global buffer under `from`, then carve `to_rank`'s
/// shards under `to`. The two layouts must describe the same model
/// (identical unpadded unit ranges).
///
/// # Panics
/// Panics if the layouts disagree on the unpadded unit ranges.
pub fn reshard(from: &FlatLayout, shards: &[Vec<f32>], to: &FlatLayout, to_rank: usize) -> Vec<f32> {
    assert_eq!(from.unit_ranges, to.unit_ranges, "layouts describe different models");
    global_to_shard(to, &shards_to_global(from, shards), to_rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A global buffer where every element has a distinct bit pattern,
    /// including a NaN payload and a negative zero, so any lane swap or
    /// arithmetic touch-up shows as a bit difference.
    fn spiky_global(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| match i % 5 {
                0 => f32::from_bits(0x7fc0_0001 + i as u32), // NaN payloads
                1 => -0.0,
                _ => (i as f32 + 0.5) * if i % 2 == 0 { -1.0 } else { 1.0 },
            })
            .collect()
    }

    const UNITS: &[usize] = &[10, 7, 4];

    #[test]
    fn global_shard_global_is_bit_identical() {
        let global = spiky_global(21);
        for shard_n in 1..=6 {
            let l = FlatLayout::new(UNITS, shard_n);
            let shards: Vec<Vec<f32>> =
                (0..shard_n).map(|r| global_to_shard(&l, &global, r)).collect();
            let back = shards_to_global(&l, &shards);
            assert_eq!(bits(&global), bits(&back), "shard_n={shard_n}");
        }
    }

    #[test]
    fn reshard_across_group_sizes_is_bit_identical() {
        let global = spiky_global(21);
        for from_n in 1..=4 {
            for to_n in 1..=4 {
                let from = FlatLayout::new(UNITS, from_n);
                let to = FlatLayout::new(UNITS, to_n);
                let old: Vec<Vec<f32>> =
                    (0..from_n).map(|r| global_to_shard(&from, &global, r)).collect();
                let new: Vec<Vec<f32>> =
                    (0..to_n).map(|r| reshard(&from, &old, &to, r)).collect();
                // the new shards reassemble to the same global bits
                assert_eq!(
                    bits(&global),
                    bits(&shards_to_global(&to, &new)),
                    "reshard {from_n} -> {to_n}"
                );
                // and match a direct carve of the global under `to`
                for (r, s) in new.iter().enumerate() {
                    assert_eq!(bits(s), bits(&global_to_shard(&to, &global, r)), "rank {r}");
                }
            }
        }
    }

    #[test]
    fn shard_n_one_is_the_identity() {
        let global = spiky_global(21);
        let l = FlatLayout::new(UNITS, 1);
        let shard = global_to_shard(&l, &global, 0);
        assert_eq!(bits(&global), bits(&shard), "one rank owns everything unpadded");
        assert_eq!(bits(&global), bits(&shards_to_global(&l, &[shard])));
    }

    #[test]
    fn shards_match_engine_extraction() {
        // global_to_shard must agree with FlatLayout::extract_shard (what
        // the engine's export path concatenates), padding included
        let global = spiky_global(21);
        let l = FlatLayout::new(UNITS, 4);
        for r in 0..4 {
            let mut manual = Vec::new();
            for u in 0..l.num_units() {
                manual.extend(l.extract_shard(&global, u, r));
            }
            assert_eq!(bits(&manual), bits(&global_to_shard(&l, &global, r)));
        }
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn rejects_wrong_shard_length() {
        let l = FlatLayout::new(UNITS, 2);
        let bad = vec![vec![0.0; 3], vec![0.0; 3]];
        let _ = shards_to_global(&l, &bad);
    }

    #[test]
    #[should_panic(expected = "different models")]
    fn rejects_layout_mismatch() {
        let a = FlatLayout::new(&[10, 7], 2);
        let b = FlatLayout::new(&[9, 8], 2);
        let shards: Vec<Vec<f32>> = (0..2).map(|_| vec![0.0; a.total_shard_len()]).collect();
        let _ = reshard(&a, &shards, &b, 0);
    }
}
