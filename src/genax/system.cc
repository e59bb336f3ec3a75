#include "genax/system.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/check.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"
#include "genax/seeding_sim.hh"
#include "seed/index_snapshot.hh"

namespace genax {

namespace {

void
accumulate(SeedingStats &into, const SeedingStats &from)
{
    into.reads += from.reads;
    into.exactMatchReads += from.exactMatchReads;
    into.indexLookups += from.indexLookups;
    into.smems += from.smems;
    into.hitsReported += from.hitsReported;
    into.cam += from.cam;
}

/**
 * Seeding-lane cycle model: SRAM table reads take two cycles but the
 * banked index SRAM keeps `issue_width` lookups in flight per lane;
 * CAM searches and loads take one cycle each, binary-search probes
 * two (SRAM access + compare).
 */
double
seedingCycles(const SeedingStats &s, u32 issue_width)
{
    return 2.0 * static_cast<double>(s.indexLookups) /
               std::max(1u, issue_width) +
           static_cast<double>(s.cam.searches) +
           static_cast<double>(s.cam.loads) +
           2.0 * static_cast<double>(s.cam.binarySteps);
}

/**
 * A per-read candidate list plus an open-addressing (pos, strand)
 * index over it. Overlapping segments rediscover identical
 * alignments, and the old linear dedup rescan was the host's worst
 * quadratic hot spot at large candidate caps; the flat hash makes
 * every probe O(1) while reproducing the list semantics exactly —
 * in-place replacement on a better score, append order otherwise,
 * and the same prune rule — so the emitted mappings are unchanged.
 */
struct CandidateSet
{
    std::vector<Mapping> list;
    std::vector<u32> table; //!< candidate index + 1; 0 = empty
    u64 mask = 0;

    static u64
    keyOf(const Mapping &m)
    {
        return (m.pos << 1) | (m.reverse ? 1u : 0u);
    }

    static u64
    hashKey(u64 k)
    {
        k ^= k >> 33;
        k *= 0xff51afd7ed558ccdULL;
        k ^= k >> 33;
        return k;
    }

    void
    rehash(u64 slots)
    {
        table.assign(slots, 0);
        mask = slots - 1;
        for (u32 i = 0; i < list.size(); ++i) {
            u64 h = hashKey(keyOf(list[i])) & mask;
            while (table[h] != 0)
                h = (h + 1) & mask;
            table[h] = i + 1;
        }
    }

    void
    insert(const Mapping &m, u32 cap)
    {
        if (table.empty())
            rehash(64);
        const u64 key = keyOf(m);
        u64 h = hashKey(key) & mask;
        while (table[h] != 0) {
            Mapping &c = list[table[h] - 1];
            if (keyOf(c) == key) {
                if (m.score > c.score)
                    c = m;
                return;
            }
            h = (h + 1) & mask;
        }
        table[h] = static_cast<u32>(list.size()) + 1;
        list.push_back(m);
        // Bound memory: prune the tail when well over the cap (the
        // same threshold and comparator as the pre-hash code, so the
        // surviving set is identical).
        if (list.size() > 4 * static_cast<size_t>(cap)) {
            std::partial_sort(list.begin(), list.begin() + 2 * cap,
                              list.end(),
                              [](const Mapping &a, const Mapping &b) {
                                  return a.score > b.score;
                              });
            list.resize(2 * cap);
            rehash(std::max<u64>(64, std::bit_ceil(u64{8} * cap)));
        } else if (2 * (list.size() + 1) > mask + 1) {
            rehash(2 * (mask + 1));
        }
    }

    /**
     * Empty the set for reuse, keeping both allocations. Find/insert
     * results depend only on the insertion sequence, never on the
     * table size, so starting a batch from a previously-grown table
     * produces the identical candidate list.
     */
    void
    reset()
    {
        list.clear();
        std::fill(table.begin(), table.end(), 0u);
    }
};

/**
 * Per-runner shard of the mutable alignment state. Each parallelFor
 * slot owns one shard, so the hot path touches no shared mutable
 * state; shards are reduced in slot order at streamEnd(). Every
 * reduced quantity is an integer sum — and a SillaX lane's cycle
 * count for a job depends only on the job itself — so the merged
 * perf report is bit-identical at any thread count.
 */
struct WorkerShard
{
    SillaXLane lane;
    u64 extensionJobs = 0;
    u64 laneFaults = 0;
    u64 degradedJobs = 0;
    u64 exactReads = 0; //!< reads exact in at least one segment
    /** Host wall-clock this shard spent inside the extension kernel
     *  (profiling only — never part of the modelled report). */
    double extHostSeconds = 0;
    /** Host wall-clock this shard spent in the read loop outside the
     *  extension kernel: lookups, seeding, anchoring — profiling
     *  only. */
    double seedHostSeconds = 0;
    /** Reused unpack buffer for the extension kernel's packed
     *  reference windows (one live job per shard at a time). */
    Seq unpackScratch;
    /** The current read's reverse complement, and both strands'
     *  k-mers resolved in the whole index. */
    Seq rev;
    ResolvedRead resolved[2];
    /** Per-segment seeding stats and SillaX cycles over the pass. */
    std::vector<SeedingStats> segSeeding;
    std::vector<Cycle> segLaneCycles;

    WorkerShard(const GenAxConfig &cfg, u64 segments)
        : lane(cfg.editBound, cfg.scoring, cfg.sillaxFreqGhz),
          segSeeding(segments), segLaneCycles(segments, 0)
    {
    }
};

u64
camOps(const SeedingStats &s)
{
    return s.cam.searches + s.cam.loads + s.cam.binarySteps;
}

} // namespace

/**
 * Accumulators of one streaming pass (streamBegin .. streamEnd).
 *
 * Everything summed across batches is an exact integer (u64 stats,
 * lane-cycle deltas), so the per-segment doubles derived at
 * streamEnd() are bit-identical whether the reads arrived in one
 * batch or many. The worker shards persist across batches: a SillaX
 * lane's cycles per job depend only on the job, so letting the lane
 * counters run across batches changes nothing, and the before/after
 * difference around each segment's extensions isolates its share.
 */
struct GenAxSystem::StreamState
{
    unsigned width = 1;
    std::vector<WorkerShard> shards;
    /** Per-segment per-read lane work in global read order; only
     *  populated under cfg.simulateSeedingLanes (the cycle-stepped
     *  simulation needs the whole per-read list, so that mode keeps
     *  O(reads) state per segment). */
    std::vector<std::vector<LaneWork>> segLaneWork;
    u64 readsBytes = 0;  //!< packed read bytes streamed per segment
    u64 totalReads = 0;  //!< reads admitted so far (= next base)
    /** Wall-clock of the streamBatchCandidates calls (profiling). */
    double batchHostSeconds = 0;
    /** Per-read candidate sets, reused across batches so the hash
     *  tables and lists reach a steady-state capacity instead of
     *  reallocating per batch. */
    std::vector<CandidateSet> cands;
};

GenAxSystem::~GenAxSystem() = default;

GenAxSystem::GenAxSystem(const Seq &ref, const GenAxConfig &cfg)
    : _ref(ref), _cfg(cfg),
      _segments(ref, SegmentConfig{cfg.segmentCount, cfg.segmentOverlap,
                                   cfg.k}),
      _index(cfg.snapshot != nullptr
                 ? cfg.snapshot->index()
                 : SeedIndex(ref, cfg.k, cfg.threads)),
      _dram(cfg.dram)
{
    GENAX_CHECK(cfg.sillaxLanes > 0, "need at least one SillaX lane");
    GENAX_CHECK(cfg.seedingLanes > 0, "need at least one seeding lane");
    GENAX_CHECK(cfg.editBound > 0 && cfg.editBound <= kMaxSillaK,
                "edit bound out of range: ", cfg.editBound);
    // The attach path (pipeline.cc) has verified the snapshot's
    // fingerprint against the parsed reference, so a k other than the
    // configured one (which sizes the modelled tables) is a
    // programming error. Any segmentation works: segments are windows
    // of the one index.
    GENAX_CHECK(_index.k() == cfg.k, "index k ", _index.k(),
                " != configured k ", cfg.k);
    _windows.reserve(_segments.count());
    for (u64 i = 0; i < _segments.count(); ++i)
        _windows.push_back(
            _index.window(_segments.start(i), _segments.length(i)));
}

void
GenAxSystem::streamBegin()
{
    GENAX_CHECK(!_stream, "streamBegin with a stream already open");
    _perf = {};
    _perf.segments = _segments.count();
    _hostProfile = {};

    auto st = std::make_unique<StreamState>();
    st->width = ThreadPool::resolveWidth(_cfg.threads);
    // One shard per runner slot. The host-side lane count is a
    // sharding artifact (one lane object per worker); the *model*
    // still charges cfg.sillaxLanes lanes at streamEnd(), and since
    // a lane's cycles per job depend only on the job, the summed
    // cycle count is invariant to how jobs land on shards.
    st->shards.reserve(st->width);
    for (unsigned s = 0; s < st->width; ++s)
        st->shards.emplace_back(_cfg, _segments.count());
    if (_cfg.simulateSeedingLanes)
        st->segLaneWork.resize(_segments.count());
    _stream = std::move(st);
}

std::vector<std::vector<Mapping>>
GenAxSystem::streamBatchCandidates(const std::vector<Seq> &reads,
                                   u64 base_read_index,
                                   u32 max_candidates)
{
    GENAX_CHECK(_stream, "streamBatchCandidates without streamBegin");
    const auto batch_t0 = std::chrono::steady_clock::now();
    StreamState &st = *_stream;
    GENAX_CHECK(base_read_index == st.totalReads,
                "batch base ", base_read_index, " but ",
                st.totalReads, " reads already streamed");
    st.totalReads += reads.size();
    _perf.reads += reads.size();

    if (st.cands.size() < reads.size())
        st.cands.resize(reads.size());
    for (u64 r = 0; r < reads.size(); ++r)
        st.cands[r].reset();
    std::vector<CandidateSet> &cands = st.cands;
    _degraded.assign(reads.size(), 0);

    for (const auto &r : reads)
        st.readsBytes += (r.size() + 3) / 4;
    // The lane simulation's per-segment work lists are in global read
    // order, and each runner fills its own reads' entries.
    for (auto &work : st.segLaneWork)
        work.resize(st.totalReads);
    const u64 segments = _segments.count();

    // One read-major pass, sharded across the pool: a runner takes a
    // read, looks up both strands' k-mers once in the whole index,
    // then seeds every segment's window and extends that window's
    // anchors. Each read's candidates are inserted segment-major,
    // then strand-major, exact matches before anchors — the sequence
    // the set's insertion-order-sensitive prune is pinned to.
    parallelFor(
        reads.size(), st.width, [&](unsigned slot, u64 lo, u64 hi) {
            WorkerShard &ws = st.shards[slot];
            // The index is shared read-only; each chunk gets its own
            // engine (it accumulates stats and CAM state).
            SmemEngine engine(_index, _cfg.seeding);
            u64 cur_read = 0;

            // Extension kernel with graceful degradation: a job the
            // lane refuses (injected issue fault) is re-run on the
            // software kernel (SIMD score pass + truncated scalar
            // traceback) instead of being dropped, and the read is
            // flagged so the pipeline ledger can report it as
            // degraded.
            const ExtendFn kernel = [&](const PackedSeq &rw,
                                        const Seq &qry) {
                ++ws.extensionJobs;
                const auto ext_t0 = std::chrono::steady_clock::now();
                rw.unpackInto(ws.unpackScratch);
                auto attempt = ws.lane.tryExtend(ws.unpackScratch, qry);
                ExtensionResult out;
                if (!attempt.ok()) [[unlikely]] {
                    ++ws.laneFaults;
                    ++ws.degradedJobs;
                    _degraded[cur_read] = 1;
                    out = gotohExtendViaScore(rw, qry, _cfg.scoring,
                                              _cfg.editBound);
                } else {
                    const SillaAlignment &a = *attempt;
                    out.score = a.score;
                    out.refConsumed = a.refEnd;
                    out.qryConsumed = a.qryEnd;
                    for (const auto &e : a.cigar.elems())
                        if (e.op != CigarOp::SoftClip)
                            out.cigar.push(e.op, e.len);
                }
                // genax-lint: allow(fp-accum): shard-local host profiling, never a modelled quantity
                ws.extHostSeconds +=
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - ext_t0)
                        .count();
                return out;
            };

            for (u64 r = lo; r < hi; ++r) {
                cur_read = r;
                const auto read_t0 = std::chrono::steady_clock::now();
                const double ext_before = ws.extHostSeconds;
                reverseComplementInto(reads[r], ws.rev);
                engine.resolve(reads[r], ws.resolved[0]);
                engine.resolve(ws.rev, ws.resolved[1]);
                bool exact = false;
                for (u64 seg = 0; seg < segments; ++seg) {
                    // Fault decisions inside this read are keyed on
                    // (segment, global read index) — a pure function
                    // of the work item, not of arrival order or batch
                    // composition — so an armed plan fires
                    // identically at any thread count and any batch
                    // size.
                    FaultKeyScope fault_key(FaultKeyScope::mixKey(
                        seg + 1, base_read_index + r));
                    const Cycle cycles_before =
                        ws.lane.stats().totalCycles();
                    for (int sidx = 0; sidx < 2; ++sidx) {
                        const bool reverse = sidx == 1;
                        const Seq &oriented = reverse ? ws.rev : reads[r];
                        const auto smems =
                            engine.seed(ws.resolved[sidx], _windows[seg]);
                        if (smems.empty())
                            continue;

                        // Exact whole-read match: no extension needed
                        // (Section V's common-case optimization).
                        if (smems.size() == 1 && smems[0].qryBegin == 0 &&
                            smems[0].qryEnd == oriented.size()) {
                            exact = true;
                            for (u32 local : smems[0].positions) {
                                Mapping m;
                                m.mapped = true;
                                m.reverse = reverse;
                                m.pos = _segments.toGlobal(seg, local);
                                m.score = static_cast<i32>(oriented.size()) *
                                          _cfg.scoring.match;
                                m.cigar.push(
                                    CigarOp::Match,
                                    static_cast<u32>(oriented.size()));
                                cands[r].insert(m, max_candidates);
                            }
                            continue;
                        }
                        for (const Anchor &anchor :
                             makeAnchors(smems, _segments.start(seg),
                                         reverse, _cfg.anchors))
                            cands[r].insert(
                                extendAnchor(_ref, oriented, anchor,
                                             _cfg.scoring, _cfg.editBound,
                                             kernel),
                                max_candidates);
                    }
                    ws.segLaneCycles[seg] +=
                        ws.lane.stats().totalCycles() - cycles_before;
                    const SeedingStats &seeded = engine.stats();
                    if (_cfg.simulateSeedingLanes)
                        st.segLaneWork[seg][base_read_index + r] = {
                            seeded.indexLookups, camOps(seeded)};
                    accumulate(ws.segSeeding[seg], seeded);
                    engine.resetStats();
                }
                ws.exactReads += exact;
                // genax-lint: allow(fp-accum): shard-local host profiling, never a modelled quantity
                ws.seedHostSeconds +=
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - read_t0)
                        .count() -
                    (ws.extHostSeconds - ext_before);
            }
        });

    // Finalize: sort candidates by the rank rule, as the software
    // engine does. Per-read and independent, so this also shards
    // cleanly.
    std::vector<std::vector<Mapping>> out(reads.size());
    parallelFor(
        reads.size(), st.width, [&](unsigned, u64 lo, u64 hi) {
            for (u64 r = lo; r < hi; ++r) {
                auto &c = cands[r].list;
                std::sort(c.begin(), c.end(), ranksBefore);
                if (c.size() > max_candidates)
                    c.resize(max_candidates);
                out[r] = std::move(c);
            }
        });
    // genax-lint: allow(fp-accum): serial host profiling of the batch call, never a modelled quantity
    st.batchHostSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      batch_t0)
            .count();
    return out;
}

std::vector<Mapping>
GenAxSystem::streamBatch(const std::vector<Seq> &reads,
                         u64 base_read_index)
{
    const auto cands = streamBatchCandidates(reads, base_read_index);
    std::vector<Mapping> out(reads.size());
    for (u64 r = 0; r < reads.size(); ++r) {
        const auto &c = cands[r];
        if (c.empty())
            continue;
        out[r] = c[0];
        out[r].mapq = rankedMapq(c);
    }
    return out;
}

void
GenAxSystem::streamEnd()
{
    GENAX_CHECK(_stream, "streamEnd without streamBegin");
    const auto end_t0 = std::chrono::steady_clock::now();
    StreamState &st = *_stream;

    // The cycle-stepped seeding-lane simulations are sharded across
    // the pool: each segment's simulation is a pure function of
    // (segment seed, that segment's work list) — its RNG is its own,
    // it touches no fault site, and its result lands in that
    // segment's slot — so any work division produces bit-identical
    // cycle counts, and the serial reduction below consumes them in
    // segment order exactly as the single-threaded pass did.
    std::vector<Cycle> sim_cycles;
    if (_cfg.simulateSeedingLanes) {
        sim_cycles.assign(_segments.count(), 0);
        parallelFor(
            _segments.count(), st.width,
            [&](unsigned, u64 lo, u64 hi) {
                for (u64 seg = lo; seg < hi; ++seg) {
                    SeedingSimConfig sim_cfg;
                    sim_cfg.lanes = _cfg.seedingLanes;
                    sim_cfg.banks = _cfg.seedingSramBanks;
                    sim_cfg.issueWidth = _cfg.seedingIssueWidth;
                    sim_cfg.seed = seg + 1;
                    sim_cycles[seg] = SeedingLaneSim(sim_cfg)
                                          .simulate(st.segLaneWork[seg])
                                          .cycles;
                }
            });
        _hostProfile.seedingSimSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - end_t0)
                .count();
    }

    // Deterministic reduction: the shards' per-segment seeding stats
    // and lane cycles are u64 sums, folded in slot order and then in
    // segment order, so the totals — and the seconds derived from
    // them below — are bit-identical at any thread count and batch
    // size.
    std::vector<SeedingStats> seg_seeding(_segments.count());
    std::vector<Cycle> seg_lane_cycles(_segments.count(), 0);
    for (const auto &ws : st.shards) {
        for (u64 seg = 0; seg < _segments.count(); ++seg) {
            accumulate(seg_seeding[seg], ws.segSeeding[seg]);
            seg_lane_cycles[seg] += ws.segLaneCycles[seg];
        }
    }
    for (const SeedingStats &s : seg_seeding)
        accumulate(_perf.seeding, s);

    // Per-segment DRAM streams and modelled seconds, in segment
    // order. The DRAM fault site replays by per-site ordinal, so the
    // one-stream-per-segment call sequence here is exactly the
    // sequence a single alignAll() pass issues.
    for (u64 seg = 0; seg < _segments.count(); ++seg) {
        // Stream the segment's tables, reference and the read set.
        const u64 dram_bytes = _segments.indexTableBytes() +
                               _segments.positionTableBytes(seg) +
                               _segments.refBytes(seg) + st.readsBytes;
        double dram_sec;
        if (auto streamed = _dram.stream(dram_bytes); streamed.ok()) {
            dram_sec = *streamed;
        } else {
            // Stream failed even after the controller's retry: keep
            // the pass alive on the closed-form estimate and record
            // the degradation in the perf report.
            ++_perf.dramFaults;
            GENAX_WARN("segment ", seg, " table stream degraded: ",
                       streamed.status().str());
            dram_sec = 2.0 * _dram.streamSeconds(dram_bytes);
        }

        // Per-segment timing: table streaming overlaps with the
        // previous segment's compute; seeding and extension lanes
        // run concurrently.
        double seed_sec;
        if (_cfg.simulateSeedingLanes) {
            seed_sec = static_cast<double>(sim_cycles[seg]) /
                       (_cfg.seedingFreqGhz * 1e9);
        } else {
            seed_sec = seedingCycles(seg_seeding[seg],
                                     _cfg.seedingIssueWidth) /
                       (_cfg.seedingLanes * _cfg.seedingFreqGhz * 1e9);
        }

        const double ext_sec =
            static_cast<double>(seg_lane_cycles[seg]) /
            (_cfg.sillaxLanes * _cfg.sillaxFreqGhz * 1e9);

        // Derived doubles summed in the serial segment loop, in
        // segment order, from already-folded u64 cycle counters —
        // the accumulation order is fixed at any thread count.
        // genax-lint: allow(fp-accum): serial segment-order sums of per-segment derived doubles
        _perf.seedingSeconds += seed_sec;
        // genax-lint: allow(fp-accum): serial segment-order sums of per-segment derived doubles
        _perf.extensionSeconds += ext_sec;
        // genax-lint: allow(fp-accum): serial segment-order sums of per-segment derived doubles
        _perf.dramSeconds += dram_sec;
        _perf.totalSeconds += std::max({dram_sec, seed_sec, ext_sec});
    }

    for (const auto &ws : st.shards) {
        const LaneStats &s = ws.lane.stats();
        _perf.lanes.jobs += s.jobs;
        _perf.lanes.streamCycles += s.streamCycles;
        _perf.lanes.reduceCycles += s.reduceCycles;
        _perf.lanes.collectCycles += s.collectCycles;
        _perf.lanes.rerunCycles += s.rerunCycles;
        _perf.lanes.reruns += s.reruns;
        _perf.lanes.jobsWithRerun += s.jobsWithRerun;
        _perf.lanes.issueFaults += s.issueFaults;
        _perf.extensionJobs += ws.extensionJobs;
        _perf.laneFaults += ws.laneFaults;
        _perf.degradedJobs += ws.degradedJobs;
        _perf.exactReads += ws.exactReads;
    }
    // Pipeline occupancy: every extension job dispatched by the
    // kernel must be accounted for by exactly one lane or by the
    // software fallback — the sharded dispatch dropped or
    // double-counted nothing.
    GENAX_CHECK(_perf.lanes.jobs + _perf.degradedJobs ==
                    _perf.extensionJobs,
                "lane stats record ", _perf.lanes.jobs, " jobs plus ",
                _perf.degradedJobs,
                " degraded jobs but the system dispatched ",
                _perf.extensionJobs);

    // Host-phase profile of the whole pass. Seeding and extension
    // time are shard sums in slot order (CPU-seconds when threaded);
    // bookkeeping is whatever the batch calls and this finalization
    // spent outside the two instrumented phases. The seeding figure
    // adds the read loop's time outside the extension kernel to
    // whatever the cycle-stepped lane simulation recorded above, so
    // it is non-zero in every mode.
    for (const auto &ws : st.shards) {
        _hostProfile.extensionSeconds += ws.extHostSeconds;
        _hostProfile.seedingSimSeconds += ws.seedHostSeconds;
    }
    _hostProfile.totalSeconds =
        st.batchHostSeconds +
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      end_t0)
            .count();
    _hostProfile.bookkeepingSeconds =
        std::max(0.0, _hostProfile.totalSeconds -
                          _hostProfile.seedingSimSeconds -
                          _hostProfile.extensionSeconds);

    _stream.reset();
}

std::vector<std::vector<Mapping>>
GenAxSystem::alignAllCandidates(const std::vector<Seq> &reads,
                                u32 max_candidates)
{
    streamBegin();
    auto out = streamBatchCandidates(reads, 0, max_candidates);
    streamEnd();
    return out;
}

std::vector<Mapping>
GenAxSystem::alignAll(const std::vector<Seq> &reads)
{
    streamBegin();
    auto out = streamBatch(reads, 0);
    streamEnd();
    return out;
}

GenAxAreaPower
GenAxSystem::areaPower(const GenAxConfig &cfg, u64 index_table_bytes,
                       u64 position_table_bytes)
{
    GenAxAreaPower out;
    out.sramBytes = index_table_bytes + position_table_bytes +
                    cfg.referenceCacheBytes + cfg.readBufferBytes;
    const double sram_mb = static_cast<double>(out.sramBytes) / 1e6;

    out.seedingLanesMm2 =
        cfg.seedingLanes * TechModel::seedingLaneAreaMm2();
    out.sillaxLanesMm2 =
        cfg.sillaxLanes * TechModel::machineAreaMm2(
                              PeType::Traceback, cfg.editBound,
                              cfg.sillaxFreqGhz);
    out.sramMm2 = sram_mb * TechModel::sramAreaPerMb();
    out.totalMm2 = out.seedingLanesMm2 + out.sillaxLanesMm2 +
                   out.sramMm2;

    out.seedingLanesW =
        cfg.seedingLanes * TechModel::seedingLanePowerW();
    out.sillaxLanesW =
        cfg.sillaxLanes * TechModel::machinePowerW(
                              PeType::Traceback, cfg.editBound,
                              cfg.sillaxFreqGhz);
    out.sramW = sram_mb * TechModel::sramPowerPerMb();
    out.totalW = out.seedingLanesW + out.sillaxLanesW + out.sramW;
    return out;
}

GenAxSystem::Projection
GenAxSystem::project(const GenAxConfig &cfg, const GenAxPerf &measured,
                     u64 reads, u64 read_len, u64 genome_len,
                     u64 segments)
{
    GENAX_CHECK(measured.reads > 0 && measured.segments > 0,
                 "projection needs a measured run");
    Projection out;

    // Per-read-per-segment seeding seconds (both strands included in
    // the measured stats).
    const double measured_read_segs = static_cast<double>(
        measured.reads * measured.segments);
    const double seed_sec_per_read_seg =
        measured.seedingSeconds / measured_read_segs;
    out.seedingSeconds = seed_sec_per_read_seg *
                         static_cast<double>(reads) *
                         static_cast<double>(segments);

    // Extension: jobs per read and seconds per job carry over.
    const double jobs_per_read =
        static_cast<double>(measured.extensionJobs) /
        static_cast<double>(measured.reads);
    const double ext_sec_per_job =
        measured.extensionJobs > 0
            ? measured.extensionSeconds /
                  static_cast<double>(measured.extensionJobs)
            : 0.0;
    out.extensionSeconds = ext_sec_per_job * jobs_per_read *
                           static_cast<double>(reads);

    // DRAM: per segment, stream tables + reference + the read batch.
    DramModel dram(cfg.dram);
    const u64 seg_len = genome_len / segments;
    const u64 reads_bytes = reads * ((read_len + 3) / 4);
    const u64 per_seg = (u64{1} << (2 * cfg.k)) *
                            KmerIndex::kEntryBytes +     // index
                        seg_len * KmerIndex::kEntryBytes + // positions
                        seg_len / 4 +                     // reference
                        reads_bytes;
    out.dramSeconds = dram.streamSeconds(per_seg) *
                      static_cast<double>(segments);

    // Segments pipeline: each phase bounded by its slowest component.
    const double per_seg_seed = out.seedingSeconds / segments;
    const double per_seg_ext = out.extensionSeconds / segments;
    const double per_seg_dram = out.dramSeconds / segments;
    out.totalSeconds =
        std::max({per_seg_seed, per_seg_ext, per_seg_dram}) * segments;
    out.readsPerSecond =
        out.totalSeconds > 0 ? reads / out.totalSeconds : 0.0;
    return out;
}

GenAxAreaPower
GenAxSystem::areaPower() const
{
    u64 max_pos = 0;
    for (u64 s = 0; s < _segments.count(); ++s)
        max_pos = std::max(max_pos, _segments.positionTableBytes(s));
    return areaPower(_cfg, _segments.indexTableBytes(), max_pos);
}

} // namespace genax
