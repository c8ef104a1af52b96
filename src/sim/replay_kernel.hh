/**
 * @file
 * The block-replay kernel's two bodies, exposed for tests.
 *
 * replayBlock() (sim/server_sim.hh) is one kernel template instantiated
 * twice over the vector type that carries a lane:
 *
 *  - Sse2: 16-byte vectors of two lanes, plain SSE2 on x86-64 (NEON on
 *    AArch64), so it runs on every host. It replays a full block of
 *    replayWidth (sixteen) candidates as two passes of eight.
 *  - Avx2: 32-byte vectors of four lanes, compiled with
 *    target("avx2") (no FMA, no -march), replaying a full block of
 *    sixteen in one pass. x86 only.
 *
 * Both perform the same element-wise IEEE add, sub, mul, max and masks
 * per lane, with no divide and no blend in the per-job loop, so they
 * return bit-identical outcomes and tails; the choice is speed only.
 * replayBlock() probes the CPU once, at its first call, and uses Avx2
 * where the host supports it. No configuration selects a body: these
 * hooks exist so tests can run both bodies on one host and pin the
 * bit-identity that makes the probe result-neutral (docs/CONCURRENCY.md,
 * invariant 4).
 */

#ifndef SLEEPSCALE_SIM_REPLAY_KERNEL_HH
#define SLEEPSCALE_SIM_REPLAY_KERNEL_HH

#include <span>

#include "sim/server_sim.hh"
#include "util/quantile_histogram.hh"

namespace sleepscale {

/** A body of the block-replay kernel. */
enum class ReplayKernel
{
    Sse2, ///< Two lanes per 16-byte vector; runs everywhere.
    Avx2  ///< Four lanes per 32-byte vector; x86 hosts with AVX2.
};

/** The body replayBlock() runs: Avx2 where the CPU has AVX2, else
 * Sse2, probed once at the first call. A host runs Sse2 and its active
 * body, nothing else. */
ReplayKernel activeReplayKernel();

/** replayBlock() through the given body (same checks and outcomes;
 * ConfigError for Avx2 on a host whose active body is Sse2). */
void replayBlockWith(ReplayKernel kernel, const PreparedLog &log,
                     std::span<const ReplayCandidate> lanes,
                     std::span<ReplayOutcome> outcomes,
                     std::span<QuantileHistogram> tails = {});

} // namespace sleepscale

#endif // SLEEPSCALE_SIM_REPLAY_KERNEL_HH
