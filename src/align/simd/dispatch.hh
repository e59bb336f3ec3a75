/**
 * @file
 * One-time runtime CPU dispatch for the vectorized alignment kernels.
 *
 * Tier ladder: AVX2 > SSE4.1 > scalar. The best tier both compiled in
 * and supported by the running CPU is detected once; every kernel
 * entry point (scoreCandidateBatch, myersEditDistanceBatch and the
 * SillaTraceback row sweep) routes through the active tier. All tiers
 * are bit-identical by contract — the scalar kernels are the
 * reference oracle — so tier selection is purely a speed choice and
 * never changes any pipeline output.
 *
 * Overrides, strongest first:
 *  - setKernelTier() / setKernelTierByName() — programmatic, backs
 *    the genax_align / bench_report `--kernel` flag;
 *  - GENAX_FORCE_SCALAR=1 in the environment — pins the scalar
 *    reference path (CI uses this to keep it exercised on
 *    SIMD-capable runners).
 */

#ifndef GENAX_ALIGN_SIMD_DISPATCH_HH
#define GENAX_ALIGN_SIMD_DISPATCH_HH

#include <string_view>

#include "common/status.hh"
#include "common/types.hh"

namespace genax::simd {

/** Kernel implementation tiers, weakest to strongest. */
enum class KernelTier : u8
{
    Scalar = 0,
    Sse41 = 1,
    Avx2 = 2,
};

/** Lower-case tier name ("scalar", "sse41", "avx2"). */
const char *kernelTierName(KernelTier tier);

/** True if the tier's kernels were compiled into this binary. */
bool kernelTierCompiled(KernelTier tier);

/** True if the running CPU can execute the tier's instructions
 *  (and the tier was compiled in). */
bool kernelTierSupported(KernelTier tier);

/**
 * Best supported tier, detected once per process from CPUID and
 * demoted to Scalar when GENAX_FORCE_SCALAR is set to anything but
 * "0" or empty.
 */
KernelTier detectKernelTier();

/**
 * The tier the batch kernels currently dispatch to: the forced tier
 * if one was set, else detectKernelTier().
 */
KernelTier activeKernelTier();

/**
 * Force a specific tier (must be supported on this host; forcing a
 * *lower* tier than detected is always legal). Pass std::nullopt-like
 * "auto" via setKernelTierByName to clear.
 */
Status setKernelTier(KernelTier tier);

/**
 * Parse and apply a `--kernel` value: "auto", "scalar", "sse41" or
 * "avx2". "auto" clears any forced tier. Unknown names and tiers the
 * host cannot run yield InvalidInput.
 */
Status setKernelTierByName(std::string_view name);

/** Clear any forced tier (back to auto detection). */
void clearKernelTierOverride();

} // namespace genax::simd

#endif // GENAX_ALIGN_SIMD_DISPATCH_HH
