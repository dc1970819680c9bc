//! The instruction sets the kernels are compiled for, and the one place the
//! CPU is asked which of them it has.
//!
//! A kernel is written once, as plain loops over fixed-size arrays, and
//! implements `Kernel`. `Isa::run` calls it through a trampoline built
//! with that instruction set's target features, so LLVM vectorises the one
//! body at 128, 256 or 512 bits. Every instance does the same operations in
//! the same order — a multiply and an add are two roundings, never one FMA,
//! since Rust does not let LLVM contract them — so every instance gives the
//! same bits as every other.

use std::sync::OnceLock;

/// An instruction set a kernel body is instantiated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// The target's baseline features (SSE2 on x86-64).
    Portable,
    /// AVX2: 256-bit vectors.
    Avx2,
    /// AVX-512F: 512-bit vectors.
    Avx512,
}

impl Isa {
    /// Every instruction set, narrowest first.
    pub const ALL: [Self; 3] = [Self::Portable, Self::Avx2, Self::Avx512];

    /// Stable name for bench records and messages.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Portable => "portable",
            Self::Avx2 => "avx2",
            Self::Avx512 => "avx512",
        }
    }

    /// The widest instruction set this CPU runs, detected on the first call.
    #[must_use]
    pub fn best() -> Self {
        static BEST: OnceLock<Isa> = OnceLock::new();
        *BEST.get_or_init(detect)
    }

    /// Whether this CPU runs code built for `self` (each set includes the
    /// narrower ones).
    #[must_use]
    pub fn is_available(self) -> bool {
        self <= Self::best()
    }

    /// Runs `kernel`'s body as compiled for `self`.
    ///
    /// # Panics
    ///
    /// Panics if this CPU lacks `self`.
    pub(crate) fn run<K: Kernel>(self, kernel: K) -> K::Output {
        assert!(self.is_available(), "this CPU has no {}", self.name());
        match self {
            Self::Portable => kernel.run(),
            // SAFETY: the CPU has the features, checked above.
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => unsafe { avx2(kernel) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => unsafe { avx512(kernel) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only x86-64 detects a wider set"),
        }
    }
}

/// The widest set both the CPU and this build can use.
fn detect() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            return Isa::Avx2;
        }
    }
    Isa::Portable
}

/// A kernel body. Implementations mark [`Kernel::run`] `#[inline(always)]`,
/// so each trampoline below compiles a copy of its own.
pub(crate) trait Kernel {
    type Output;

    fn run(self) -> Self::Output;
}

/// `kernel` compiled with AVX2.
///
/// # Safety
///
/// The CPU must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

/// `kernel` compiled with AVX-512F.
///
/// # Safety
///
/// The CPU must have AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_is_available_and_sets_nest() {
        let best = Isa::best();
        assert!(best.is_available() && Isa::Portable.is_available());
        for isa in Isa::ALL {
            assert_eq!(isa.is_available(), isa <= best, "{}", isa.name());
        }
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            Isa::Avx2.is_available(),
            std::arch::is_x86_feature_detected!("avx2")
        );
    }

    #[test]
    fn a_missing_set_never_runs() {
        struct Nothing;
        impl Kernel for Nothing {
            type Output = ();
            fn run(self) {}
        }
        for isa in Isa::ALL {
            let ran = std::panic::catch_unwind(|| isa.run(Nothing)).is_ok();
            assert_eq!(ran, isa.is_available(), "{}", isa.name());
        }
    }
}
