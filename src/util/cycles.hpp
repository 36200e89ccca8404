/**
 * @file
 * Cycle arithmetic that cannot wrap.
 *
 * Modeled time is an unsigned 64-bit cycle count, and ~0ull is the
 * "never" the event loops already use for an absent next event.  A
 * due time formed as `now + interval` saturates there instead of
 * wrapping to a small cycle that would make the event due at once.
 */

#ifndef CORUSCANT_UTIL_CYCLES_HPP
#define CORUSCANT_UTIL_CYCLES_HPP

#include <cstdint>

namespace coruscant {

/** Cycle that never comes: the saturated end of the cycle range. */
inline constexpr std::uint64_t kNeverCycle = ~0ull;

/** @p a + @p b, or kNeverCycle when the sum would wrap. */
constexpr std::uint64_t
satAddCycles(std::uint64_t a, std::uint64_t b)
{
    return b > kNeverCycle - a ? kNeverCycle : a + b;
}

} // namespace coruscant

#endif // CORUSCANT_UTIL_CYCLES_HPP
