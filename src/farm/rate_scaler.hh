/**
 * @file
 * Zero-communication distributed rate scaling (the "distributed"
 * farm control mode).
 *
 * Rutten et al. (arXiv:2306.02215) study server farms where every
 * back-end provisions its own service rate from purely local arrival
 * observations — no dispatcher state, no shared predictor, no
 * coordination of any kind. DistributedRateScaler is that decision
 * rule packaged as an EpochDecider: each server keeps a Robbins–Monro
 * estimate of its local offered load and picks the lowest frequency
 * whose scaled utilization stays under a target, leaving the sleep
 * plan fixed. Plugged into FarmRuntime, one per server, it gives the
 * farm a third control mode beside "farm-wide" and "per-server":
 * cheaper than the log-replay search (O(grid) per epoch, no job log)
 * and more decentralized than both (it ignores the shared utilization
 * predictor entirely).
 */

#ifndef SLEEPSCALE_FARM_RATE_SCALER_HH
#define SLEEPSCALE_FARM_RATE_SCALER_HH

#include <cstdint>
#include <vector>

#include "core/epoch_decider.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

/**
 * Local-load-tracking EpochDecider: estimate the server's offered
 * load λ̂ from its own epoch observations, then run the slowest
 * frequency f with λ̂ · scaling.factor(f) <= ρ*.
 *
 * The Robbins–Monro step size at the k-th observation is
 * max(1/k, 0.05), so the estimate converges like a running mean early
 * on but keeps adapting to drift forever.
 *
 * Stateless apart from the scalar estimate (needsLog() is false), so
 * FarmRuntime skips per-server log collection entirely — the memory
 * profile of a 100k-server distributed farm is one double per server.
 */
class DistributedRateScaler final : public EpochDecider
{
  public:
    /**
     * @param frequencies Candidate frequency grid (each in (0, 1]);
     *        copied and sorted ascending.
     * @param scaling Service-time scaling law (maps frequency to the
     *        service-time multiplier the utilization check uses).
     * @param initial Policy run until the first decision; its sleep
     *        plan stays in force forever (rate scaling only moves the
     *        frequency).
     * @param target Utilization ceiling ρ* the chosen frequency must
     *        keep the estimated load under, in (0, 1]; FarmRuntime
     *        anchors it at the QoS design point ρ_b.
     */
    DistributedRateScaler(std::vector<double> frequencies,
                          ServiceScaling scaling, const Policy &initial,
                          double target);

    /** Never consumes a job log (the zero-communication point). */
    bool needsLog() const override { return false; }

    PolicyDecision decide(const EpochObservation &observation,
                          const PreparedLog &log) override;

    void reset() override;

  private:
    std::vector<double> _frequencies;
    ServiceScaling _scaling;
    Policy _initial;
    double _target;

    double _lambda = 0.0;
    std::uint64_t _samples = 0;
};

} // namespace sleepscale

#endif // SLEEPSCALE_FARM_RATE_SCALER_HH
