/**
 * @file
 * The traced run: host time attributed to each layer of the stack.
 *
 * Spans are taken from outside the library, around calls into one
 * layer at a time.  Each layer group re-executes its workload's work
 * through public calls (a "mirror") with timers around the layer
 * boundaries, and checks that the mirror reproduces the library's
 * result exactly, so the times belong to the same work:
 *
 *  - service: WorkloadGenerator, GangBatcher and the EventSimulator
 *    replay over units priced by ServiceCostTable, against runService;
 *  - service.fault: the per-channel shift/data injectors and the DBC
 *    health tracker, fed the same dispatched units;
 *  - obs: runService with and without MetricsRegistry / TraceSink;
 *  - arch/controller/reliability: the controllerCampaign trial loop;
 *  - util/core/dwm/baselines: the runCoruscant and runElp2im chunk
 *    loops of the Fig. 12 query.
 *
 * Every traced run reports every per-layer metric.  Groups the
 * workload does not load run at a small fixed probe size, and their
 * values are marked "probe" in the record.
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/** One per-layer metric: what it is and what it should move. */
struct LayerMetricSpec
{
    const char *name;
    const char *unit;
    const char *better;   ///< "lower" or "higher"
    const char *moves;    ///< end-to-end metric it should move
    const char *workload; ///< workload whose layers it measures
};

/** Every per-layer metric, in report order (BENCHMARK.json per_layer). */
const std::vector<LayerMetricSpec> &layerMetricSpecs();

/** Host time of one layer inside a workload. */
struct LayerTime
{
    std::string layer;
    double selfS = 0.0;
};

/** Host-time attribution of one workload's call to its layers. */
struct LayerReport
{
    std::string reference; ///< the untraced library call(s)
    double untracedWallS = 0.0;
    double tracedWallS = 0.0; ///< the mirror, timers included
    std::vector<LayerTime> layers;
    std::string residualLabel; ///< what the unattributed rest holds
    std::string outputs;       ///< canonical modeled outputs of the call
};

/**
 * Run every layer group for @p workload (its own groups at full size,
 * the others at probe size), filling @p metrics with every per-layer
 * metric and @p report with the workload's own attribution.
 */
void traceLayers(const std::string &workload, std::uint64_t seed,
                 Scale scale, std::uint32_t threads, Metrics &metrics,
                 Checks &checks, LayerReport &report);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
