/**
 * @file
 * Fundamental quantity types shared by all simulator components.
 *
 * Times are kept in picoseconds as unsigned 64-bit integers so that event
 * ordering is exact; energies are kept in picojoules as doubles since they
 * are only ever accumulated and reported.
 */

#ifndef LERGAN_COMMON_TYPES_HH
#define LERGAN_COMMON_TYPES_HH

#include <cstdint>

#include "common/logging.hh"

namespace lergan {

/** Simulated time in picoseconds. */
using PicoSeconds = std::uint64_t;

/** Energy in picojoules. */
using PicoJoules = double;

/** Data size in bytes. */
using Bytes = std::uint64_t;

/**
 * Convert nanoseconds to the canonical picosecond representation,
 * rounded to the nearest picosecond. @p ns must be finite and round to
 * a picosecond count in [0, 2^64): casting a negative, NaN or larger
 * double to an integer is undefined, so anything else is a bug.
 */
constexpr PicoSeconds
nsToPs(double ns)
{
    const double ps = ns * 1e3 + 0.5;
    LERGAN_ASSERT(ps >= 0.0 && ps < 0x1p64, "nsToPs: ", ns,
                  " ns is outside the picosecond range");
    return static_cast<PicoSeconds>(ps);
}

/** Convert picoseconds to (floating) nanoseconds for reporting. */
constexpr double
psToNs(PicoSeconds ps)
{
    return static_cast<double>(ps) * 1e-3;
}

/** Convert picoseconds to (floating) milliseconds for reporting. */
constexpr double
psToMs(PicoSeconds ps)
{
    return static_cast<double>(ps) * 1e-9;
}

/** Convert picojoules to millijoules for reporting. */
constexpr double
pjToMj(PicoJoules pj)
{
    return pj * 1e-9;
}

} // namespace lergan

#endif // LERGAN_COMMON_TYPES_HH
