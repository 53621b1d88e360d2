//! Offline shim for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no crates-io access. This shim keeps the
//! `par_*` call sites source-compatible by returning the
//! corresponding **sequential** standard-library iterators: `par_chunks`
//! is `chunks`, `par_iter_mut` is `iter_mut`, and every adaptor that the
//! workspace chains afterwards (`zip`, `enumerate`, `for_each`) is then the
//! plain `Iterator` method.
//!
//! Every `par_*` call therefore runs on the calling thread, whatever the
//! host's core count. The workspace's concurrency comes from its own
//! threads (FSDP rank and comm threads, ingest workers, serve workers); the
//! kernels written against this API express their available parallelism
//! exactly as with the real rayon, so swapping the real crate back in
//! requires no source change outside the workspace manifest.

/// Drop-in for `rayon::prelude`.
pub mod prelude {
    /// `par_iter`/`par_chunks` over shared slices.
    pub trait ParallelSlice<T> {
        /// Sequential stand-in for rayon's `par_iter`.
        fn par_iter(&self) -> std::slice::Iter<'_, T>;
        /// Sequential stand-in for rayon's `par_chunks`.
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T>;
    }

    /// `par_iter_mut`/`par_chunks_mut` over mutable slices.
    pub trait ParallelSliceMut<T> {
        /// Sequential stand-in for rayon's `par_iter_mut`.
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T>;
        /// Sequential stand-in for rayon's `par_chunks_mut`.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> std::slice::Iter<'_, T> {
            self.iter()
        }

        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T> {
            self.chunks(chunk_size)
        }
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
            self.iter_mut()
        }

        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(chunk_size)
        }
    }
}

/// Run two closures (sequentially here; in parallel under real rayon).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    (a(), b())
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_match_chunks() {
        let v = [1, 2, 3, 4, 5];
        let par: Vec<Vec<i32>> = v.par_chunks(2).map(|c| c.to_vec()).collect();
        assert_eq!(par, vec![vec![1, 2], vec![3, 4], vec![5]]);
    }

    #[test]
    fn par_iter_mut_applies_in_order() {
        let mut v = vec![1, 2, 3];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x += i as i32);
        assert_eq!(v, vec![1, 3, 5]);
    }

    #[test]
    fn zip_chains_work() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let mut b = [0.0f32; 4];
        b.par_chunks_mut(2).zip(a.par_chunks(2)).for_each(|(dst, src)| {
            dst.copy_from_slice(src);
        });
        assert_eq!(a, b);
    }
}
