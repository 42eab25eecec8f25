//! Runtime kernel-dispatch policy: which tier the public kernels execute.
//!
//! Three tiers exist (see the [`super`] module docs): `scalar` is the
//! reference implementation, and `unrolled` and `simd` are the one vector
//! body instantiated at its two lane types, `[f64; 4]` (portable) and
//! `__m256d` (AVX2).  The default policy picks the SIMD tier when the CPU
//! supports AVX2 and the portable tier otherwise — [`resolve`] is the one
//! place that knows the SIMD tier cannot run off x86-64; the `MADLIB_SIMD`
//! environment variable overrides it:
//!
//! | value                                    | effect                      |
//! |------------------------------------------|-----------------------------|
//! | unset / `on` / `1` / `true` / `auto` / `simd` | runtime detection (default) |
//! | `off` / `0` / `false` / `portable` / `unrolled` | force the portable tier |
//! | `scalar`                                 | force the scalar reference  |
//!
//! An unrecognized value logs a warning to stderr (once) and falls back to
//! runtime detection, mirroring how `MADLIB_THREADS` treats garbage input —
//! silent acceptance of a typo like `MADLIB_SIMD=offf` would quietly benchmark
//! the wrong tier.
//!
//! Because every tier is bit-identical (the two fast tiers share their code,
//! and `tests/kernel_tiers.rs` compares both with the reference; NaN
//! payloads excepted — see the accumulation-order contract in the parent
//! module), the policy choice affects *throughput only*, never results —
//! which is exactly what makes the escape hatch safe to flip in CI.

use std::sync::OnceLock;

/// The kernel implementation tier actually executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// Reference implementation; sequential loops, autovectorizer only.
    Scalar,
    /// The vector body at `[f64; 4]`: portable lane-array kernels.
    Unrolled,
    /// The vector body at `__m256d`: explicit AVX2 (`core::arch::x86_64`).
    Simd,
}

impl KernelPath {
    /// All tiers, slowest first.
    pub const ALL: [KernelPath; 3] = [KernelPath::Scalar, KernelPath::Unrolled, KernelPath::Simd];

    /// Stable lowercase label (used in bench metadata and logs).
    pub fn label(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Unrolled => "unrolled",
            KernelPath::Simd => "simd",
        }
    }
}

/// Parsed `MADLIB_SIMD` policy, before runtime CPU detection is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPolicy {
    /// Use the SIMD tier when the CPU supports it (the default).
    Auto,
    /// Force the portable-unrolled tier (`MADLIB_SIMD=off`).
    ForceUnrolled,
    /// Force the scalar reference tier (`MADLIB_SIMD=scalar`).
    ForceScalar,
}

/// The pure parsing policy behind [`active_path`], split out so it can be
/// unit-tested without racing on the process environment.  Returns the
/// parsed policy and, for an unrecognized value, the warning that should be
/// logged instead of silently ignoring it.
pub fn simd_policy_from(env_override: Option<&str>) -> (SimdPolicy, Option<String>) {
    let Some(raw) = env_override else {
        return (SimdPolicy::Auto, None);
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "false" | "portable" | "unrolled" => (SimdPolicy::ForceUnrolled, None),
        "scalar" => (SimdPolicy::ForceScalar, None),
        "on" | "1" | "true" | "auto" | "simd" => (SimdPolicy::Auto, None),
        _ => (
            SimdPolicy::Auto,
            Some(format!(
                "invalid MADLIB_SIMD value {raw:?} (expected off/scalar/on); \
                 falling back to runtime detection"
            )),
        ),
    }
}

/// Resolves a parsed policy against what the CPU actually supports.
pub fn resolve(policy: SimdPolicy) -> KernelPath {
    match policy {
        SimdPolicy::ForceScalar => KernelPath::Scalar,
        SimdPolicy::ForceUnrolled => KernelPath::Unrolled,
        SimdPolicy::Auto => {
            if super::simd::available() {
                KernelPath::Simd
            } else {
                KernelPath::Unrolled
            }
        }
    }
}

/// The tier the public kernels dispatch to in this process.
///
/// Computed once from `MADLIB_SIMD` + runtime CPU detection and cached: the
/// kernels sit in inner loops, so the dispatch must stay a cached load, not
/// an environment read.
pub fn active_path() -> KernelPath {
    static PATH: OnceLock<KernelPath> = OnceLock::new();
    *PATH.get_or_init(|| {
        let (policy, warning) = simd_policy_from(std::env::var("MADLIB_SIMD").ok().as_deref());
        if let Some(warning) = warning {
            eprintln!("madlib-linalg: {warning}");
        }
        resolve(policy)
    })
}

/// The SIMD-relevant CPU features detected at runtime, as stable lowercase
/// names — recorded in `madbench`'s host metadata so cross-host reruns can
/// be compared honestly.
///
/// Note that `fma` being *detected* does not mean the kernels *use* fused
/// multiply-adds: fusing would skip the intermediate rounding of `a * b` and
/// break bit-identity with the scalar tier (see the [`super`] module docs).
pub fn cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut features: Vec<&'static str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            features.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            features.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            features.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            features.push("avx512f");
        }
    }
    features
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_values_parse_without_warning() {
        for (raw, want) in [
            ("off", SimdPolicy::ForceUnrolled),
            ("0", SimdPolicy::ForceUnrolled),
            ("FALSE", SimdPolicy::ForceUnrolled),
            (" portable ", SimdPolicy::ForceUnrolled),
            ("unrolled", SimdPolicy::ForceUnrolled),
            ("scalar", SimdPolicy::ForceScalar),
            ("SCALAR", SimdPolicy::ForceScalar),
            ("on", SimdPolicy::Auto),
            ("1", SimdPolicy::Auto),
            ("true", SimdPolicy::Auto),
            ("auto", SimdPolicy::Auto),
            ("simd", SimdPolicy::Auto),
        ] {
            let (policy, warning) = simd_policy_from(Some(raw));
            assert_eq!(policy, want, "raw={raw:?}");
            assert!(warning.is_none(), "raw={raw:?} warned: {warning:?}");
        }
        assert_eq!(simd_policy_from(None), (SimdPolicy::Auto, None));
    }

    #[test]
    fn invalid_values_warn_and_fall_back_to_auto() {
        for raw in ["offf", "", "yes please", "2", "-1", "avx512"] {
            let (policy, warning) = simd_policy_from(Some(raw));
            assert_eq!(policy, SimdPolicy::Auto, "raw={raw:?}");
            let warning = warning.unwrap_or_else(|| panic!("raw={raw:?} should warn"));
            assert!(warning.contains("MADLIB_SIMD"), "warning: {warning}");
        }
    }

    #[test]
    fn resolve_honors_forced_tiers_and_detection() {
        assert_eq!(resolve(SimdPolicy::ForceScalar), KernelPath::Scalar);
        assert_eq!(resolve(SimdPolicy::ForceUnrolled), KernelPath::Unrolled);
        let auto = resolve(SimdPolicy::Auto);
        if super::super::simd::available() {
            assert_eq!(auto, KernelPath::Simd);
        } else {
            assert_eq!(auto, KernelPath::Unrolled);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(KernelPath::Scalar.label(), "scalar");
        assert_eq!(KernelPath::Unrolled.label(), "unrolled");
        assert_eq!(KernelPath::Simd.label(), "simd");
    }
}
