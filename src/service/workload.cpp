#include "service/workload.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <sstream>

#include "util/logging.hpp"

namespace coruscant {

const char *
arrivalProcessName(ArrivalProcess p)
{
    return enumTokens(p)[static_cast<std::size_t>(p)];
}

WorkloadMix
WorkloadMix::uniform()
{
    WorkloadMix m;
    m.weight.fill(1.0);
    return m;
}

WorkloadMix
WorkloadMix::pimServing()
{
    WorkloadMix m;
    m.weight[static_cast<std::size_t>(RequestClass::Read)] = 0.15;
    m.weight[static_cast<std::size_t>(RequestClass::Write)] = 0.10;
    m.weight[static_cast<std::size_t>(RequestClass::BulkBitwise)] = 0.50;
    m.weight[static_cast<std::size_t>(RequestClass::MultiOpAdd)] = 0.15;
    m.weight[static_cast<std::size_t>(RequestClass::Reduce)] = 0.05;
    m.weight[static_cast<std::size_t>(RequestClass::MacTile)] = 0.05;
    return m;
}

WorkloadMix
WorkloadMix::parse(const std::string &text)
{
    WorkloadMix m;
    std::array<bool, kRequestClasses> named{};
    std::istringstream is(text);
    std::string part;
    while (std::getline(is, part, ',')) {
        if (part.empty())
            continue;
        auto colon = part.find(':');
        fatalIf(colon == std::string::npos, "mix entry '", part,
                "' is not name:weight");
        std::string name = part.substr(0, colon);
        // The whole token is one finite number, as in an option table.
        double w = 0;
        const char *last = part.data() + part.size();
        auto [end, ec] = std::from_chars(part.data() + colon + 1, last, w);
        fatalIf(ec != std::errc() || end != last || !std::isfinite(w),
                "mix entry '", part, "' has a malformed weight");
        fatalIf(w < 0, "mix weight for '", name, "' is negative");
        bool known = false;
        for (std::size_t c = 0; c < kRequestClasses; ++c) {
            if (name == requestClassName(static_cast<RequestClass>(c))) {
                // A second weight for a class would silently replace
                // the first.
                fatalIf(named[c], "mix names request class '", name,
                        "' twice");
                named[c] = true;
                m.weight[c] = w;
                known = true;
                break;
            }
        }
        fatalIf(!known, "unknown request class '", name,
                "' (read, write, bulk, add, reduce, mac)");
    }
    double total = 0;
    for (double w : m.weight)
        total += w;
    // Finite weights can still sum to inf, which no weight is a share of.
    fatalIf(!std::isfinite(total), "mix '", text, "' weights sum past the "
            "largest double");
    fatalIf(total <= 0, "mix '", text, "' has no positive weight");
    return m;
}

std::string
WorkloadMix::describe() const
{
    std::ostringstream os;
    double total = 0;
    for (double w : weight)
        total += w;
    bool first = true;
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
        if (weight[c] <= 0)
            continue;
        if (!first)
            os << ",";
        os << requestClassName(static_cast<RequestClass>(c)) << ":"
           << weight[c] / total;
        first = false;
    }
    return os.str();
}

std::uint64_t
channelSeed(std::uint64_t seed, std::uint32_t channel)
{
    // SplitMix64 finalizer over the pair: well-separated streams for
    // adjacent channels even with small user seeds.
    return splitMix64(seed + 0x9e3779b97f4a7c15ULL *
                                 (static_cast<std::uint64_t>(channel) + 1));
}

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig &cfg,
                                     std::uint64_t seed,
                                     std::uint32_t channel)
    : cfg_(cfg), rng_(channelSeed(seed, channel))
{
    fatalIf(cfg_.banks == 0, "workload needs at least one bank");
    fatalIf(cfg_.dbcGroups == 0, "workload needs a DBC group");
    fatalIf(cfg_.process != ArrivalProcess::ClosedLoop &&
                !WorkloadConfig::rateValid(cfg_.ratePerKcycle),
            "open-loop workload rate must be in (0, ",
            WorkloadConfig::kMaxRatePerKcycle, "] per kcycle (got ",
            cfg_.ratePerKcycle, ")");
    double total = 0;
    for (std::size_t c = 0; c < kRequestClasses; ++c) {
        total += cfg_.mix.weight[c];
        cumulative_[c] = total;
    }
    fatalIf(!std::isfinite(total), "workload mix weights sum past the "
            "largest double");
    fatalIf(total <= 0, "workload mix has no positive weight");
    if (cfg_.process == ArrivalProcess::Bursty) {
        burstOn_ = rng_.nextBool(cfg_.burstFraction);
        burstLeft_ = exponential(
            burstOn_ ? cfg_.meanBurstCycles
                     : cfg_.meanBurstCycles *
                           (1.0 - cfg_.burstFraction) /
                           cfg_.burstFraction);
    }
}

double
WorkloadGenerator::exponential(double mean_cycles)
{
    // Inverse-CDF with u in (0,1]: never log(0).
    double u = 1.0 - rng_.nextDouble();
    return -mean_cycles * std::log(u);
}

void
WorkloadGenerator::advanceClock()
{
    if (cfg_.process == ArrivalProcess::Poisson) {
        clock_ += exponential(1000.0 / cfg_.ratePerKcycle);
        return;
    }
    // Two-state modulated Poisson: the on state runs at burstFactor
    // times the base rate; the off state absorbs the difference so the
    // long-run offered rate stays ratePerKcycle (clamped at zero when
    // burstFraction * burstFactor > 1).
    const double f = cfg_.burstFraction;
    const double on_rate = cfg_.ratePerKcycle * cfg_.burstFactor;
    const double off_rate =
        std::max(0.0, cfg_.ratePerKcycle * (1.0 - f * cfg_.burstFactor) /
                          (1.0 - f));
    for (;;) {
        if (burstLeft_ <= 0) {
            burstOn_ = !burstOn_;
            burstLeft_ = exponential(
                burstOn_ ? cfg_.meanBurstCycles
                         : cfg_.meanBurstCycles * (1.0 - f) / f);
        }
        double rate = burstOn_ ? on_rate : off_rate;
        if (rate <= 1e-12) {
            clock_ += burstLeft_;
            burstLeft_ = 0;
            continue;
        }
        double dt = exponential(1000.0 / rate);
        if (dt <= burstLeft_) {
            clock_ += dt;
            burstLeft_ -= dt;
            return;
        }
        // Memoryless: discard the draw past the state boundary and
        // resample in the next state.
        clock_ += burstLeft_;
        burstLeft_ = 0;
    }
}

ServiceRequest
WorkloadGenerator::sampleBody()
{
    ServiceRequest r;
    r.id = produced_;
    double u = rng_.nextDouble() * cumulative_[kRequestClasses - 1];
    std::size_t c = 0;
    while (c + 1 < kRequestClasses && u >= cumulative_[c])
        ++c;
    r.cls = static_cast<RequestClass>(c);
    if (r.cls == RequestClass::BulkBitwise && cfg_.bulkHotGroups > 0) {
        std::uint32_t hot = static_cast<std::uint32_t>(
            rng_.nextBelow(cfg_.bulkHotGroups));
        r.bank = hot % cfg_.banks;
        r.dbcGroup = (hot / cfg_.banks) % cfg_.dbcGroups;
    } else {
        r.bank = static_cast<std::uint32_t>(rng_.nextBelow(cfg_.banks));
        r.dbcGroup = static_cast<std::uint32_t>(
            rng_.nextBelow(cfg_.dbcGroups));
    }
    switch (r.cls) {
    case RequestClass::Read:
    case RequestClass::Write:
        r.size = 1 + static_cast<std::uint32_t>(rng_.nextBelow(4));
        break;
    case RequestClass::MultiOpAdd:
        r.size = 2 + static_cast<std::uint32_t>(rng_.nextBelow(
                         cfg_.maxAddOperands - 1));
        break;
    case RequestClass::MacTile:
        r.size = 1 + static_cast<std::uint32_t>(rng_.nextBelow(4));
        break;
    case RequestClass::BulkBitwise:
    case RequestClass::Reduce:
        r.size = 1;
        break;
    }
    return r;
}

bool
WorkloadGenerator::next(ServiceRequest &out)
{
    fatalIf(cfg_.process == ArrivalProcess::ClosedLoop,
            "closed-loop arrivals are driven by completions; "
            "use sampleAt()");
    advanceClock();
    // From 2^64 on the clock has no cycle value (the cast would be
    // undefined), and it is past every duration: the stream has ended.
    if (clock_ >= 0x1p64)
        return false;
    std::uint64_t arrival = static_cast<std::uint64_t>(clock_);
    if (arrival >= cfg_.durationCycles)
        return false;
    out = sampleBody();
    out.arrival = arrival;
    ++produced_;
    return true;
}

ServiceRequest
WorkloadGenerator::sampleAt(std::uint64_t arrival)
{
    ServiceRequest r = sampleBody();
    r.arrival = arrival;
    ++produced_;
    return r;
}

} // namespace coruscant
