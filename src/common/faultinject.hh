/**
 * @file
 * Deterministic, seeded fault injection.
 *
 * Production components register *fault points* — named places where
 * an environment failure could strike (an IO read, a DRAM stream, a
 * CAM capacity overflow, a SillaX lane issue). Tests and the chaos CI
 * job arm a subset of sites with a firing rule; the component then
 * observes the failure through its ordinary Status channel and must
 * skip, retry or degrade exactly as it would in production.
 *
 * Cost model: everything is off by default, and a disarmed build
 * evaluates one relaxed atomic load per fault point — the accelerator
 * perf model regresses by noise only. Arming is process-global and
 * thread-safe; firing decisions are deterministic given (site seed,
 * hit ordinal), so a failing chaos run replays exactly.
 *
 * Parallel regions and keyed decisions: a global hit ordinal is only
 * reproducible when hits arrive in one deterministic order, which
 * stops being true once work is sharded across pool workers. Code
 * that processes independent work items concurrently opens a
 * FaultKeyScope with a deterministic per-item key (e.g. a hash of
 * (segment, read)); every hit inside the scope is then decided as a
 * pure function of (site seed, key, within-item hit ordinal) instead
 * of arrival order, so the same spec fires on exactly the same work
 * at any thread count. Inside a scope the n= rule counts hits within
 * the item, not process-wide, and max= still caps total fires but
 * which concurrent hit gets suppressed is scheduling-dependent —
 * deterministic multi-threaded replay should stick to p=/n= rules.
 *
 * Site naming convention (see DESIGN.md): "<layer>.<unit>.<event>",
 * e.g. "io.fastq.record" or "sillax.lane.issue". Constants for all
 * registered sites live in namespace fault so call sites and tests
 * cannot drift apart.
 */

#ifndef GENAX_COMMON_FAULTINJECT_HH
#define GENAX_COMMON_FAULTINJECT_HH

#include <atomic>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "common/types.hh"

namespace genax {

/** Registered fault-site names. */
namespace fault {

inline constexpr const char *kFastaRecord = "io.fasta.record";
inline constexpr const char *kFastqRecord = "io.fastq.record";
inline constexpr const char *kSamWrite = "io.sam.write";
inline constexpr const char *kCamOverflow = "seed.cam.overflow";
inline constexpr const char *kDramStream = "genax.dram.stream";
inline constexpr const char *kLaneIssue = "sillax.lane.issue";
inline constexpr const char *kPipelineRead = "genax.pipeline.read";
inline constexpr const char *kStoreShortWrite = "io.store.short_write";
inline constexpr const char *kStoreEio = "io.store.eio";
inline constexpr const char *kStoreEnospc = "io.store.enospc";
inline constexpr const char *kStoreMmapFail = "io.store.mmap_fail";
inline constexpr const char *kServeAcceptFail = "serve.accept.fail";
inline constexpr const char *kServeReadShort = "serve.read.short";
inline constexpr const char *kServeWriteEio = "serve.write.eio";
inline constexpr const char *kServeSpawnFail = "serve.spawn.fail";
inline constexpr const char *kServeHandlerThrow = "serve.handler.throw";

} // namespace fault

/** Firing rule for one armed site. */
struct FaultSpec
{
    /** Fire each hit with this probability (deterministic stream). */
    double probability = 0.0;
    /** Fire on exactly the Nth hit (1-based); 0 disables the rule. */
    u64 fireOnNth = 0;
    /** Stop firing after this many fires (both rules). */
    u64 maxFires = ~u64{0};
    /** Seed for the site's private random stream. */
    u64 seed = 1;
};

/** Process-global fault-injection registry. */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    /** Arm (or re-arm) a site; resets its hit/fire counters. */
    void arm(std::string_view site, const FaultSpec &spec);

    /** Disarm one site (its counters are dropped). */
    void disarm(std::string_view site);

    /** Disarm every site and clear all counters. */
    void reset();

    /** Fast check: is any site armed at all? */
    bool
    anyArmed() const
    {
        return _armed.load(std::memory_order_relaxed);
    }

    /**
     * Count a hit at `site` and decide whether the fault fires.
     * Unarmed sites never fire (and are not counted).
     */
    bool shouldFire(std::string_view site);

    /** Hits observed at an armed site (0 when not armed). */
    u64 hits(std::string_view site) const;

    /** Faults fired at an armed site (0 when not armed). */
    u64 fires(std::string_view site) const;

    /** Names of currently armed sites, sorted. */
    std::vector<std::string> armedSites() const;

    /**
     * Arm sites from a spec string:
     *
     *   site:key=value[,key=value...][;site:...]
     *
     * keys: p (probability in [0,1]), n (fire on Nth hit),
     *       max (max fires), seed. Example:
     *
     *   "io.fastq.record:p=0.01,seed=7;sillax.lane.issue:n=3"
     */
    Status configure(std::string_view spec);

    /** configure() from the GENAX_FAULT_INJECT environment variable;
     *  OK (and a no-op) when the variable is unset or empty. */
    Status configureFromEnv();

  private:
    FaultInjector() = default;

    struct Site
    {
        FaultSpec spec;
        Rng rng;
        u64 hits = 0;
        u64 fires = 0;
    };

    mutable Mutex _mu;
    std::map<std::string, Site, std::less<>> _sites
        GENAX_GUARDED_BY(_mu);
    std::atomic<bool> _armed{false};
};

/**
 * The fault point itself: false with a single relaxed atomic load
 * unless at least one site is armed anywhere in the process.
 */
inline bool
faultFires(const char *site)
{
    FaultInjector &fi = FaultInjector::instance();
    if (!fi.anyArmed()) [[likely]]
        return false;
    return fi.shouldFire(site);
}

/**
 * RAII deterministic-key scope for fault points inside parallel
 * regions (see the keyed-decision notes in the file header). While a
 * thread holds a scope, every faultFires() it evaluates is decided by
 * (site seed, key, within-scope hit ordinal) — a pure function, so
 * the decision is identical no matter which worker runs the item or
 * in what order items complete. Scopes nest; the innermost key wins.
 */
class FaultKeyScope
{
  public:
    explicit FaultKeyScope(u64 key);
    ~FaultKeyScope();

    FaultKeyScope(const FaultKeyScope &) = delete;
    FaultKeyScope &operator=(const FaultKeyScope &) = delete;

    /** Mix two values into a decorrelated scope key (splitmix64). */
    static u64 mixKey(u64 a, u64 b);

  private:
    u64 _prevKey;
    u64 _prevSerial;
    bool _prevActive;
};

/**
 * RAII fault plan for tests: arms sites on construction and restores
 * a fully-disarmed registry on destruction.
 */
class ScopedFaultPlan
{
  public:
    ScopedFaultPlan() = default;

    explicit ScopedFaultPlan(
        std::initializer_list<std::pair<const char *, FaultSpec>> plan)
    {
        for (const auto &[site, spec] : plan)
            FaultInjector::instance().arm(site, spec);
    }

    ~ScopedFaultPlan() { FaultInjector::instance().reset(); }

    ScopedFaultPlan(const ScopedFaultPlan &) = delete;
    ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;
};

} // namespace genax

#endif // GENAX_COMMON_FAULTINJECT_HH
