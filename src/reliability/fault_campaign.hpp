/**
 * @file
 * Monte-Carlo fault-injection campaigns.
 *
 * Cross-validates the analytical TrErrorModel: operations run on the
 * functional simulator with the TR fault injector enabled at an
 * elevated rate (1e-6 is uneconomical to sample), and the empirical
 * error rate is compared against the analytical prediction evaluated
 * at the same rate.
 */

#ifndef CORUSCANT_RELIABILITY_FAULT_CAMPAIGN_HPP
#define CORUSCANT_RELIABILITY_FAULT_CAMPAIGN_HPP

#include <cstdint>

#include "arch/config.hpp"
#include "core/pim_logic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace coruscant {

/** Outcome of one injection campaign. */
struct CampaignResult
{
    std::uint64_t trials = 0;
    std::uint64_t errors = 0;
    std::uint64_t injectedFaults = 0;
    double analyticalRate = 0.0;

    double
    empiricalRate() const
    {
        return trials == 0 ? 0.0
                           : static_cast<double>(errors) /
                                 static_cast<double>(trials);
    }
};

/**
 * Configuration of an end-to-end controller campaign: cpim packed
 * additions executed through the full memory + controller stack with
 * shifting faults injected at @ref shiftFaultRate per pulse (1e-3
 * unless set) and data faults at the DataFaultRates.
 */
struct ControllerCampaignConfig : FaultConfig
{
    ControllerCampaignConfig() { shiftFaultRate = 1e-3; }

    std::uint64_t trials = 500;
    std::uint64_t seed = 1;
    static constexpr std::size_t operands = 5;  ///< rows summed per cpim add
    static constexpr std::size_t blockSize = 8; ///< packed-lane width
    std::uint64_t retireThreshold = 0; ///< 0 disables DBC retirement

    /**
     * Optional observability (non-owning): when set, the campaign's
     * internal memory and controller attach to these, so the caller
     * sees per-component primitive counters ("memory", "memory/dbc",
     * "guard", "controller") and per-cpim spans for the whole run.
     */
    obs::MetricsRegistry *metrics = nullptr;
    obs::TraceSink *trace = nullptr;
};

/**
 * Classified outcome of an end-to-end controller campaign
 * (the DUE/SDC taxonomy; see EXPERIMENTS.md "Reliability pipeline").
 */
struct ControllerCampaignResult
{
    std::uint64_t trials = 0;
    std::uint64_t clean = 0;     ///< correct result, nothing detected
    std::uint64_t corrected = 0; ///< correct result after detect+correct
    std::uint64_t due = 0;       ///< flagged detected-uncorrectable
    std::uint64_t sdc = 0;       ///< wrong result, nothing flagged

    std::uint64_t injectedFaults = 0; ///< shift faults injected
    std::uint64_t guardChecks = 0;
    std::uint64_t correctivePulses = 0;
    std::uint64_t retiredDbcs = 0;
    std::uint64_t residualAfterScrub = 0; ///< uncorrectable in final sweep

    std::uint64_t dataFaultsInjected = 0; ///< data-domain bit faults
    std::uint64_t eccCorrections = 0;     ///< SECDED words corrected
    std::uint64_t eccDue = 0;             ///< SECDED words flagged DUE

    /** Faulty trials resolved correctly: corrected / (all non-clean). */
    double
    coverage() const
    {
        std::uint64_t faulty = corrected + due + sdc;
        return faulty == 0 ? 1.0
                           : static_cast<double>(corrected) /
                                 static_cast<double>(faulty);
    }

    /** Silent-data-corruption rate over all trials. */
    double
    sdcRate() const
    {
        return trials == 0 ? 0.0
                           : static_cast<double>(sdc) /
                                 static_cast<double>(trials);
    }
};

/** Campaign drivers for the core operations. */
class FaultCampaign
{
  public:
    /**
     * Random two-operand k-bit additions under injected TR faults.
     * An "error" is any wrong lane sum in a trial.
     */
    static CampaignResult addCampaign(std::size_t trd, std::size_t bits,
                                      double p_fault,
                                      std::uint64_t trials,
                                      std::uint64_t seed = 1);

    /** Random m-operand bulk ops under injected faults (per-bit). */
    static CampaignResult bulkCampaign(BulkOp op, std::size_t trd,
                                       std::size_t operands,
                                       double p_fault,
                                       std::uint64_t trials,
                                       std::uint64_t seed = 1);

    /** Random k-bit multiplications under injected faults. */
    static CampaignResult multiplyCampaign(std::size_t trd,
                                           std::size_t bits,
                                           double p_fault,
                                           std::uint64_t trials,
                                           std::uint64_t seed = 1);

    /**
     * End-to-end controller campaign: each trial stages random operand
     * rows through DwmMainMemory::writeLine, executes a cpim packed
     * add via MemoryController::executeGuarded, reads the result back,
     * and classifies the trial as clean, detected-corrected,
     * detected-uncorrectable (DUE), or silent data corruption (SDC)
     * against a software golden sum.  Deterministic for a fixed seed.
     */
    static ControllerCampaignResult
    controllerCampaign(const ControllerCampaignConfig &cfg);
};

} // namespace coruscant

#endif // CORUSCANT_RELIABILITY_FAULT_CAMPAIGN_HPP
