/**
 * @file
 * Command-line flags shared by the tools.
 *
 * A numeric value is accepted only when the whole string is a plain
 * decimal number (no sign, space or suffix: "12x", "-1" and "" are
 * refused) inside the flag's range. A refused or missing value is a
 * usage error: "<prog>: <message>" and the tool's help on stderr,
 * exit 2.
 */

#ifndef GENAX_TOOLS_FLAGS_HH
#define GENAX_TOOLS_FLAGS_HH

#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/faultinject.hh"
#include "common/status.hh"
#include "genax/pipeline.hh"

namespace genax {

/** Exit code of a usage error, in every tool. */
constexpr int kExitUsage = 2;

/** Bounds shared by the tools' flags: the k-mer lengths the index
 *  tables support, the segment counts IndexSnapshot::build accepts
 *  and the load generator's client count (one thread and one
 *  connection each). */
constexpr u64 kMaxFlagK = 13;
constexpr u64 kMaxFlagSegments = 100000;
constexpr u64 kMaxFlagClients = 1024;

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

/** One pass over a tool's arguments, flag by flag. */
class FlagParser
{
  public:
    using HelpFn = void (*)(const char *prog, std::FILE *to);

    /** `help` prints the tool's usage; a usage error prints it to
     *  stderr. */
    FlagParser(int argc, char **argv, HelpFn help)
        : _argc(argc), _argv(argv), _help(help)
    {
    }

    /** Step to the next argument; false past the last one. */
    bool
    next()
    {
        if (++_i >= _argc)
            return false;
        _arg = _argv[_i];
        return true;
    }

    const std::string &arg() const { return _arg; }

    /** The current flag's value. */
    const char *
    value()
    {
        if (_i + 1 >= _argc)
            usageError("missing value for " + _arg);
        return _argv[++_i];
    }

    /** The current flag's value as a number in [lo, hi]. */
    template <typename T = u64>
    T
    number(std::type_identity_t<T> lo,
           std::type_identity_t<T> hi = std::numeric_limits<T>::max())
    {
        const auto v = parseFlagValue<T>(_arg, value(), lo, hi);
        if (!v.ok())
            usageError(v.status().message());
        return *v;
    }

    [[noreturn]] void
    usageError(const std::string &msg) const
    {
        std::fprintf(stderr, "%s: %s\n", _argv[0], msg.c_str());
        _help(_argv[0], stderr);
        std::exit(kExitUsage);
    }

    /**
     * When the current flag is one of the engine flags genax_align and
     * genax_serve share (--engine, --k, --band, --segments, --threads,
     * --index), store its value in `opts` and return true.
     */
    bool
    engineFlag(EngineOptions &opts)
    {
        if (_arg == "--engine") {
            const std::string e = value();
            if (e == "genax")
                opts.engine = EngineOptions::Engine::GenAx;
            else if (e == "sw")
                opts.engine = EngineOptions::Engine::Software;
            else
                usageError("--engine must be genax or sw");
        } else if (_arg == "--k") {
            opts.k = static_cast<u32>(number(1, kMaxFlagK));
        } else if (_arg == "--band") {
            opts.band = static_cast<u32>(number(1, kMaxBand));
        } else if (_arg == "--segments") {
            opts.segments = number(1, kMaxFlagSegments);
        } else if (_arg == "--threads") {
            opts.threads = static_cast<unsigned>(number(0, UINT_MAX));
        } else if (_arg == "--index") {
            opts.indexSnapshot = value();
        } else {
            return false;
        }
        return true;
    }

  private:
    int _argc;
    char **_argv;
    HelpFn _help;
    int _i = 0;
    std::string _arg;
};

/**
 * Arm fault-injection sites from GENAX_FAULT_INJECT, then from
 * `spec` (an --inject value) when it is set. A bad spec is printed to
 * stderr as "<source>: <status>" and returns false; the tool then
 * exits kExitUsage.
 */
inline bool
armFaultInjection(const std::string &spec)
{
    if (const Status st = FaultInjector::instance().configureFromEnv();
        !st.ok()) {
        std::fprintf(stderr, "GENAX_FAULT_INJECT: %s\n",
                     st.str().c_str());
        return false;
    }
    if (spec.empty())
        return true;
    if (const Status st = FaultInjector::instance().configure(spec);
        !st.ok()) {
        std::fprintf(stderr, "--inject: %s\n", st.str().c_str());
        return false;
    }
    return true;
}

} // namespace genax

#endif // GENAX_TOOLS_FLAGS_HH
