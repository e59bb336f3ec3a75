/**
 * @file
 * Strict numeric flag values for the command-line tools.
 *
 * A value is accepted only when the whole string is a plain decimal
 * number (no sign, space or suffix: "12x", "-1" and "" are refused)
 * inside the flag's range; the tools turn a refusal into a usage
 * error (exit 2) that names the flag.
 */

#ifndef GENAX_TOOLS_FLAGS_HH
#define GENAX_TOOLS_FLAGS_HH

#include <charconv>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "common/status.hh"

namespace genax {

/** Bounds shared by the tools' flags: the k-mer lengths the index
 *  tables support and the segment counts IndexSnapshot::build
 *  accepts. */
constexpr u64 kMaxFlagK = 13;
constexpr u64 kMaxFlagSegments = 100000;

/** `text` as the value of `flag`, in [lo, hi]; T is an unsigned
 *  integer type or double. */
template <typename T>
StatusOr<T>
parseFlagValue(std::string_view flag, std::string_view text, T lo,
               T hi = std::numeric_limits<T>::max())
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (!text.empty() && text[0] >= '0' && text[0] <= '9' &&
        ec == std::errc() && ptr == end && v >= lo && v <= hi)
        return v;
    std::ostringstream msg;
    msg << flag << " expects a number ";
    if (hi == std::numeric_limits<T>::max())
        msg << ">= " << lo;
    else
        msg << "in " << lo << ".." << hi;
    msg << ", got '" << text << "'";
    return invalidInputError(msg.str());
}

} // namespace genax

#endif // GENAX_TOOLS_FLAGS_HH
