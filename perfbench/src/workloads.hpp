/**
 * @file
 * The benchmark's four workloads: their configurations, the canonical
 * text of their modeled outputs (hashed into the pinned digest), and
 * the invariants every seed must satisfy.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "apps/bitmap/bitmap_index.hpp"
#include "bench.hpp"
#include "reliability/fault_campaign.hpp"
#include "service/service_engine.hpp"

namespace perfbench {

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** `serve_clean`: fault-free Poisson serving, one thread. */
coruscant::ServiceConfig serveCleanConfig(std::uint64_t seed, Scale scale);

/**
 * `serve_faults`: bursty traffic under a chaos ramp of shift faults,
 * data faults with SECDED and NMR-3, metrics collection on.
 * @param threads worker threads; 0 picks min(4, nproc)
 */
coruscant::ServiceConfig serveFaultsConfig(std::uint64_t seed, Scale scale,
                                           std::uint32_t threads);

/** Same configuration with the run shortened to @p duration cycles. */
coruscant::ServiceConfig withDuration(const coruscant::ServiceConfig &cfg,
                                      std::uint64_t duration);

/** `campaign_ecc`: guarded controller campaign with SECDED and NMR-3. */
coruscant::ControllerCampaignConfig campaignConfig(std::uint64_t seed,
                                                   Scale scale);

/** The small memory controllerCampaign builds for @p cfg. */
coruscant::MemoryConfig
campaignMemoryConfig(const coruscant::ControllerCampaignConfig &cfg);

/** `bitmap_query`: the Fig. 12 query over a synthetic user table. */
struct BitmapSpec
{
    std::size_t users = 0;
    std::size_t weeks = 4;                 ///< bitmaps synthesized
    std::vector<std::size_t> queries{2, 3, 4}; ///< w values evaluated
    std::uint64_t seed = 1;
};

BitmapSpec bitmapSpec(std::uint64_t seed, Scale scale);

/** One (technique, w) query evaluation of the bitmap workload. */
struct BitmapEval
{
    std::size_t weeks = 0;
    coruscant::BitmapQueryResult result;
};

/** Evaluate every (technique, w) pair through BitmapQueryEngine. */
std::vector<BitmapEval> runBitmapQueries(const coruscant::BitmapDatabase &db,
                                         const BitmapSpec &spec);

// --- Full configurations as JSON (provenance) -------------------------

std::string configJson(const coruscant::ServiceConfig &cfg);
std::string configJson(const coruscant::ControllerCampaignConfig &cfg);
std::string configJson(const BitmapSpec &spec);

// --- Canonical modeled outputs ("key=value" lines) --------------------

std::string canonicalOutputs(const coruscant::ServiceStats &s);
std::string canonicalOutputs(const coruscant::ControllerCampaignResult &r);
std::string canonicalOutputs(const std::vector<BitmapEval> &evals);

// --- Invariants that hold at any seed ---------------------------------

void checkInvariants(const coruscant::ServiceStats &s, Checks &checks);
void checkInvariants(const coruscant::ControllerCampaignResult &r,
                     Checks &checks);
void checkInvariants(const std::vector<BitmapEval> &evals,
                     const coruscant::BitmapQueryEngine &engine,
                     Checks &checks);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
