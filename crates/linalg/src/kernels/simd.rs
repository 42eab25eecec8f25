//! Explicit AVX2 tier: the shared vector body (`super::vector`) instantiated
//! at `__m256d`.
//!
//! This module holds the only `unsafe` in the workspace, in two places, both
//! inside the one scoped `#[allow(unsafe_code)]` below:
//!
//! * the `Lanes` implementation for `__m256d`, whose methods wrap
//!   `core::arch::x86_64` intrinsics.  Loads and stores bounds-check through
//!   their slice first, so the only obligation left to callers is that the
//!   CPU has AVX2;
//! * the entry points, which `assert!` [`available`] and then enter a
//!   `#[target_feature(enable = "avx2")]` frame.  The vector bodies are
//!   `#[inline(always)]`, so that frame is where they (and the intrinsics
//!   inside the lane methods) are compiled.
//!
//! `__m256d: Lanes` is named nowhere else, which is what discharges the lane
//! methods' obligation.  There is no fused multiply-add among them: the host
//! may well support FMA (the bench metadata records it), but fusing skips the
//! intermediate rounding of `a * b` and would diverge from the reference.
//!
//! Off x86-64 [`available`] is `false`, `dispatch::resolve` never picks this
//! tier, and the entry points exist only to panic on that assertion.

use crate::dense::DenseMatrix;

/// Whether the explicit SIMD tier can run on this machine.
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

pub use avx2::{
    batch_closest_column, batch_dot, batch_squared_distances, column_sweep, gemm_acc, gemv_acc,
    lower_triangular_inverse, rank_k_update_lower, symmetric_rank2_update,
    weighted_rank_k_update_lower,
};

#[allow(unsafe_code)]
mod avx2 {
    use super::{available, DenseMatrix};

    #[cfg(target_arch = "x86_64")]
    use {crate::kernels::vector, core::arch::x86_64::*};

    // SAFETY (every `unsafe` block of this impl): the intrinsics need AVX,
    // and the impl is only instantiated by the entry points below, after
    // `available()` confirmed AVX2.  All but `load` and `store` work on
    // registers alone; those two say why their pointer is valid.
    #[cfg(target_arch = "x86_64")]
    impl vector::Lanes for __m256d {
        /// Sixteen 256-bit registers, one per lane value.
        const WIDE_TILES: bool = true;
        #[inline(always)]
        fn splat(v: f64) -> Self {
            unsafe { _mm256_set1_pd(v) }
        }
        #[inline(always)]
        fn load(src: &[f64], at: usize) -> Self {
            let s = &src[at..at + 4];
            // SAFETY: `s` is four readable `f64`s.
            unsafe { _mm256_loadu_pd(s.as_ptr()) }
        }
        #[inline(always)]
        fn from_array(lanes: [f64; 4]) -> Self {
            unsafe { _mm256_set_pd(lanes[3], lanes[2], lanes[1], lanes[0]) }
        }
        #[inline(always)]
        fn store(self, dst: &mut [f64], at: usize) {
            let d = &mut dst[at..at + 4];
            // SAFETY: `d` is four writable `f64`s.
            unsafe { _mm256_storeu_pd(d.as_mut_ptr(), self) }
        }
        #[inline(always)]
        fn add(self, other: Self) -> Self {
            unsafe { _mm256_add_pd(self, other) }
        }
        #[inline(always)]
        fn sub(self, other: Self) -> Self {
            unsafe { _mm256_sub_pd(self, other) }
        }
        #[inline(always)]
        fn mul(self, other: Self) -> Self {
            unsafe { _mm256_mul_pd(self, other) }
        }
        #[inline(always)]
        fn select_lt(self, bound: Self, then: Self, otherwise: Self) -> Self {
            // `_CMP_LT_OQ` is false for NaN, exactly like the scalar `<`.
            unsafe { _mm256_blendv_pd(otherwise, then, _mm256_cmp_pd::<_CMP_LT_OQ>(self, bound)) }
        }
        #[inline(always)]
        fn to_array(self) -> [f64; 4] {
            let mut lanes = [0.0; 4];
            self.store(&mut lanes, 0);
            lanes
        }
    }

    /// Defines each entry point as: assert AVX2, then run the vector body of
    /// the same name at `__m256d` inside a `#[target_feature]` frame.
    macro_rules! entry_points {
        ($($(#[$doc:meta])* fn $kernel:ident($($arg:ident: $ty:ty),*);)*) => {$(
            $(#[$doc])*
            #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
            pub fn $kernel($($arg: $ty),*) {
                assert!(available(), "SIMD tier called without AVX2 support");
                #[cfg(target_arch = "x86_64")]
                {
                    #[target_feature(enable = "avx2")]
                    fn frame($($arg: $ty),*) {
                        vector::$kernel::<__m256d>($($arg),*)
                    }
                    // SAFETY: AVX2 support asserted above.
                    unsafe { frame($($arg),*) }
                }
            }
        )*};
    }

    entry_points! {
        /// AVX2 `m += Σ_r x_r x_rᵀ` (lower triangle).
        fn rank_k_update_lower(m: &mut DenseMatrix, xs: &[f64], width: usize);
        /// AVX2 weighted rank-k update (lower triangle).
        fn weighted_rank_k_update_lower(m: &mut DenseMatrix, xs: &[f64], weights: &[f64], width: usize);
        /// AVX2 batched dot product `out[r] = x_r · w`.
        fn batch_dot(xs: &[f64], w: &[f64], out: &mut [f64]);
        /// AVX2 batched squared Euclidean distances to `center`.
        fn batch_squared_distances(xs: &[f64], center: &[f64], out: &mut [f64]);
        /// AVX2 batched closest-column assignment, optionally reporting each
        /// row's winning squared distance.
        fn batch_closest_column(columns: &[Vec<f64>], xs: &[f64], width: usize, out: &mut [usize], distances: Option<&mut [f64]>);
        /// AVX2 `y += alpha * A * x`.
        fn gemv_acc(alpha: f64, a: &DenseMatrix, x: &[f64], y: &mut [f64]);
        /// AVX2 GEMM accumulation `out += A * B`.
        fn gemm_acc(out: &mut DenseMatrix, a: &DenseMatrix, b: &DenseMatrix);
        /// AVX2 column sweep `out[c] ± Σ_k m[k·stride + c] · x[k]`.
        fn column_sweep(out: &mut [f64], m: &[f64], stride: usize, x: &[f64], subtract: bool);
        /// AVX2 symmetric rank-2 update `z[j][k] -= u[j]·e[k] + e[j]·u[k]`.
        fn symmetric_rank2_update(z: &mut [f64], stride: usize, u: &[f64], e: &[f64]);
        /// AVX2 inverse of a lower-triangular matrix.
        fn lower_triangular_inverse(l: &[f64], n: usize, out: &mut [f64]);
    }
}
