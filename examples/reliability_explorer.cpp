/**
 * @file
 * Example: exploring CORUSCANT's fault-tolerance options.
 *
 * Injects transverse-read faults at an (artificially elevated) rate
 * and compares three protection levels on 8-bit additions:
 *
 *   1. unprotected,
 *   2. end-of-operation triple-modular redundancy (repeat + C' vote),
 *   3. per-step voting (paper Sec. III-F: vote S/C/C' at every bit so
 *      carry-chain errors never propagate),
 *
 * then prints the analytical Table V rates at the paper's intrinsic
 * fault probability (1e-6) where Monte-Carlo is uneconomical.
 */

#include <cstdio>

#include "core/coruscant_unit.hpp"
#include "reliability/error_model.hpp"
#include "util/rng.hpp"

using namespace coruscant;

int
main()
{
    const double p_fault = 2e-3; // elevated so errors are observable
    const int trials = 20000;
    std::printf("Injecting TR faults at p = %g over %d 8-bit "
                "additions...\n\n",
                p_fault, trials);

    DeviceParams dev = DeviceParams::coruscantDefault();
    dev.wiresPerDbc = 8;
    CoruscantUnit plain(dev, p_fault, 1);
    CoruscantUnit tmr(dev, p_fault, 2);
    CoruscantUnit step(dev, p_fault, 3);
    Rng rng(99);

    int plain_err = 0, tmr_err = 0, step_err = 0;
    std::uint64_t plain_cycles = 0, tmr_cycles = 0, step_cycles = 0;
    for (int t = 0; t < trials; ++t) {
        std::uint64_t a = rng.next() & 0xFF, b = rng.next() & 0xFF;
        std::uint64_t expect = (a + b) & 0xFF;
        std::vector<BitVector> ops = {BitVector::fromUint64(8, a),
                                      BitVector::fromUint64(8, b)};

        plain.resetCosts();
        if (plain.add(ops, 8, 8).toUint64() != expect)
            ++plain_err;
        plain_cycles += plain.ledger().cycles();

        tmr.resetCosts();
        auto voted =
            tmr.nmrExecute(3, [&] { return tmr.add(ops, 8, 8); });
        if (voted.toUint64() != expect)
            ++tmr_err;
        tmr_cycles += tmr.ledger().cycles();

        step.resetCosts();
        if (step.addStepVoted(ops, 8, 3).toUint64() != expect)
            ++step_err;
        step_cycles += step.ledger().cycles();
    }

    auto report = [&](const char *name, int errors,
                      std::uint64_t cycles) {
        std::printf("  %-22s error rate %.5f   avg %5.1f cycles/op\n",
                    name, static_cast<double>(errors) / trials,
                    static_cast<double>(cycles) / trials);
    };
    report("unprotected", plain_err, plain_cycles);
    report("end-of-op TMR", tmr_err, tmr_cycles);
    report("per-step voting (N=3)", step_err, step_cycles);

    std::printf("\nAnalytical rates at the intrinsic p = 1e-6 "
                "(paper Table V):\n");
    for (std::size_t trd : {3u, 5u, 7u}) {
        TrErrorModel m(trd);
        std::printf("  TRD=%zu: add %.2g, multiply %.2g, add+TMR "
                    "%.2g, add+N5 %.2g\n",
                    trd, m.addError(8), m.multiplyError(8),
                    m.nmrAddError(3, 8),
                    DeviceParams::voteFits(5, trd) ? m.nmrAddError(5, 8)
                                                   : 0.0);
    }
    std::printf("\n>10-year error-free operation needs N = 5 "
                "(paper Sec. V-F): %.2g per 8-bit add.\n",
                TrErrorModel(7).nmrAddError(5, 8));
    return 0;
}
