// Copyright 2026 TGCRN Reproduction Authors
// Runtime CPU feature detection and the process-wide SIMD ISA selection
// that the tensor kernels dispatch on (see tensor/kernels/gemm.h and
// tensor/kernels/vmath.h).
//
// Resolution order for the active ISA:
//   1. SetSimdIsa() — programmatic override (tests, benchmarks).
//   2. TGCRN_ISA env var — "scalar" forces the scalar kernels, "avx2"
//      requires AVX2+FMA (aborts with a clear error if the CPU or the
//      build lacks it), "auto"/unset picks the best supported level.
//   3. CPUID — AVX2 is selected only when the CPU reports AVX2 and FMA
//      *and* the AVX2 kernels were compiled in (-DTGCRN_DISABLE_AVX2=ON
//      or a non-x86 target compiles them out).
//
// Determinism contract: results are bitwise identical across thread
// counts *at a fixed ISA level*. Different ISA
// levels may differ in the last bits (FMA contraction, vectorized
// transcendental polynomials); TGCRN_ISA=scalar reproduces the legacy
// serial arithmetic exactly.
#ifndef TGCRN_COMMON_CPU_FEATURES_H_
#define TGCRN_COMMON_CPU_FEATURES_H_

namespace tgcrn {
namespace common {

enum class SimdIsa {
  kScalar = 0,  // portable scalar kernels (legacy bit-exact arithmetic)
  kAvx2 = 1,    // AVX2 + FMA microkernels
};

// True if the running CPU reports AVX2 and FMA support (cached CPUID).
bool CpuSupportsAvx2();

// True if the AVX2 kernels were compiled into this binary.
bool Avx2CompiledIn();

// The ISA every dispatching kernel entry point uses right now. Never
// returns kAvx2 unless it is both compiled in and CPU-supported.
SimdIsa ActiveSimdIsa();

// Overrides the active ISA. Aborts (TGCRN_CHECK) if `isa` is kAvx2 on a
// machine or build that cannot execute it: an explicit request is a
// contract, not a hint. Not safe to call concurrently with running
// kernels.
void SetSimdIsa(SimdIsa isa);

// Re-reads TGCRN_ISA from the environment and re-resolves the active
// level (test hook; the env var is otherwise read once at first use).
void ResetSimdIsaFromEnv();

// "scalar" / "avx2" for logs and error messages.
const char* SimdIsaName(SimdIsa isa);

// RAII guard for tests and benchmarks: pins the ISA, restores on exit.
class ScopedSimdIsa {
 public:
  explicit ScopedSimdIsa(SimdIsa isa) : previous_(ActiveSimdIsa()) {
    SetSimdIsa(isa);
  }
  ~ScopedSimdIsa() { SetSimdIsa(previous_); }
  ScopedSimdIsa(const ScopedSimdIsa&) = delete;
  ScopedSimdIsa& operator=(const ScopedSimdIsa&) = delete;

 private:
  SimdIsa previous_;
};

}  // namespace common
}  // namespace tgcrn

#endif  // TGCRN_COMMON_CPU_FEATURES_H_
