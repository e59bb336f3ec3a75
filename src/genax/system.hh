/**
 * @file
 * The GenAx system model (Section VI, Figure 11).
 *
 * Brings together the seeding accelerator (128 lanes sharing
 * segment-resident index/position tables) and 4 SillaX seed-extension
 * lanes. The modelled accelerator processes the reference segment by
 * segment: each segment's tables are streamed from DDR4 into on-chip
 * SRAM, all reads are seeded against the segment, SMEM hits become
 * extension jobs on the SillaX lanes, and the best alignment per read
 * is kept across segments and strands. The host computes the same
 * answers read by read: it looks each read's k-mers up once in one
 * whole-reference index and seeds every segment as a window of it.
 *
 * alignAll() is simultaneously the functional aligner (producing
 * per-read Mappings that the tests check for concordance with the
 * software baseline) and the performance model (producing the cycle,
 * bandwidth, power and area estimates behind Figures 15/16 and
 * Table II).
 */

#ifndef GENAX_GENAX_SYSTEM_HH
#define GENAX_GENAX_SYSTEM_HH

#include <memory>
#include <vector>

#include "align/mapping.hh"
#include "genax/dram_model.hh"
#include "seed/segment.hh"
#include "seed/smem_engine.hh"
#include "sillax/lane.hh"
#include "sillax/tech_model.hh"
#include "swbase/anchor.hh"

namespace genax {

class IndexSnapshot;

/** GenAx architecture parameters (defaults per Figure 11). */
struct GenAxConfig
{
    u32 seedingLanes = 128;
    double seedingFreqGhz = 1.0;
    u32 sillaxLanes = 4;
    double sillaxFreqGhz = 2.0;
    u32 k = 12;          //!< seeding k-mer length
    u32 editBound = 40;  //!< SillaX K (Section VIII-A uses 40)
    u64 segmentCount = 512;
    u64 segmentOverlap = 256; //!< >= readLen + 2K so windows stay local
    SeedingConfig seeding;
    AnchorConfig anchors;
    Scoring scoring;
    DramConfig dram;
    u64 readBufferBytes = 16 * 1024;       //!< read staging buffer
    u64 referenceCacheBytes = 4 * 512 * 1024; //!< 4 x 512 KB
    /** Outstanding index-table lookups a seeding lane keeps in
     *  flight (the banked SRAM pipelines accesses). */
    u32 seedingIssueWidth = 4;
    /** Replace the closed-form seeding cycle model with the
     *  cycle-stepped banked-SRAM lane simulation (slower, models
     *  bank conflicts explicitly). */
    bool simulateSeedingLanes = false;
    u32 seedingSramBanks = 32;
    /**
     * Host worker threads for the read loop and, without a snapshot,
     * the index build at construction (0 = all hardware threads).
     * Purely a host-execution knob: lanes and stats are sharded per
     * worker and reduced as order-invariant sums, so mappings, the
     * perf report and the fault-injection replay are identical at
     * any width (see DESIGN.md).
     */
    unsigned threads = 1;
    /**
     * Optional opened index snapshot (seed/index_snapshot.hh); must
     * outlive the system. When set, the system seeds against the
     * snapshot's whole-reference index, zero-copy, and builds none
     * of its own — a host-speed knob only: mappings, SAM bytes and
     * the modelled perf report are identical either way. The
     * snapshot must be of this reference at this config's k.
     */
    const IndexSnapshot *snapshot = nullptr;
};

/** Aggregate performance/energy report from one alignAll() pass. */
struct GenAxPerf
{
    u64 reads = 0;
    u64 segments = 0;
    u64 extensionJobs = 0;
    u64 exactReads = 0; //!< reads resolved by the exact-match path
                        //!< in at least one segment
    u64 degradedJobs = 0; //!< extension jobs served by the banded-
                          //!< Gotoh fallback instead of a lane
    u64 laneFaults = 0;   //!< lane issues refused (fault injection)
    u64 dramFaults = 0;   //!< DRAM streams degraded to the estimate

    double seedingSeconds = 0;
    double extensionSeconds = 0;
    double dramSeconds = 0;
    /** Sum over segments of max(dram, seeding, extension). */
    double totalSeconds = 0;

    SeedingStats seeding;
    LaneStats lanes; //!< aggregated over the SillaX lanes

    double
    readsPerSecond() const
    {
        return totalSeconds > 0
                   ? static_cast<double>(reads) / totalSeconds
                   : 0.0;
    }
};

/**
 * Host wall-clock spent per model phase during one streaming pass —
 * where the *simulator* spends its time, as opposed to GenAxPerf,
 * which reports the modelled accelerator's time. Extension seconds
 * are summed across worker shards, so on a multi-threaded run they
 * are CPU-seconds, not elapsed time. Profiling output only: the
 * values vary run to run and are never part of the modelled report
 * or any determinism contract.
 */
struct GenAxHostProfile
{
    /** Seeding-phase host time: the read loop outside the
     *  extension kernel — lookups, SMEM seeding, anchoring
     *  (CPU-seconds across shards) — plus the cycle-stepped
     *  SeedingLaneSim when that mode is enabled. */
    double seedingSimSeconds = 0;
    double extensionSeconds = 0;  //!< SillaX lane kernel (CPU-seconds)
    double bookkeepingSeconds = 0; //!< everything else in the pass
    double totalSeconds = 0;       //!< batch + streamEnd wall-clock
};

/** Area/power breakdown in the shape of Table II. */
struct GenAxAreaPower
{
    double seedingLanesMm2 = 0;
    double sillaxLanesMm2 = 0;
    double sramMm2 = 0;
    double totalMm2 = 0;
    u64 sramBytes = 0;

    double seedingLanesW = 0;
    double sillaxLanesW = 0;
    double sramW = 0;
    double totalW = 0;
};

/** The full accelerator model. */
class GenAxSystem
{
  public:
    GenAxSystem(const Seq &ref, const GenAxConfig &cfg);
    ~GenAxSystem();

    /**
     * Align every read (both strands) against the whole genome,
     * segment by segment, and collect the performance model.
     */
    std::vector<Mapping> alignAll(const std::vector<Seq> &reads);

    /**
     * @name Streaming batch interface
     *
     * The streaming pipeline feeds reads in batches so peak host
     * memory stays O(batch) instead of O(dataset):
     *
     *     streamBegin();
     *     while ((batch = reader.nextBatch(n)), !batch.empty())
     *         emit(streamBatch(batch, base)), base += batch.size();
     *     streamEnd();
     *
     * The sequence is bit-identical to one alignAll() over the
     * concatenated reads — SAM bytes, the perf report's modelled
     * cycles/seconds, and armed fault-injection replay all match at
     * any batch size and any thread count. Two mechanisms make that
     * hold: per-segment accumulators (u64 stats and lane-cycle
     * deltas summed across batches, with the derived doubles
     * computed once per segment at streamEnd() in segment order),
     * and fault keys derived from the global read index
     * (base_read_index + r), never from batch-local positions. DRAM
     * table streams — whose fault site replays by per-site ordinal,
     * not by key — are deferred to streamEnd() and issued once per
     * segment in segment order, exactly as alignAll() issues them.
     *
     * alignAll()/alignAllCandidates() are themselves implemented as
     * a single-batch stream, so the equivalence is by construction.
     */
    ///@{

    /** Open a streaming pass: resets the perf report and allocates
     *  the per-segment accumulators. No stream may already be open. */
    void streamBegin();

    /**
     * Align one batch against every segment. `base_read_index` is
     * the number of reads already streamed (checked); it keys fault
     * injection so replay is batch-size-invariant. degradedReads()
     * holds this batch's flags until the next batch is streamed.
     */
    std::vector<Mapping> streamBatch(const std::vector<Seq> &reads,
                                     u64 base_read_index);

    /** Candidate-list form of streamBatch() (same contract). */
    std::vector<std::vector<Mapping>>
    streamBatchCandidates(const std::vector<Seq> &reads,
                          u64 base_read_index, u32 max_candidates = 16);

    /** Close the pass: issue the per-segment DRAM streams, finalize
     *  the modelled seconds and the lane-stat reductions into
     *  perf(). */
    void streamEnd();

    ///@}

    /**
     * Like alignAll() but return each read's distinct candidate
     * mappings (deduplicated by position/strand, sorted by
     * descending score) — the input the paired-end resolver needs.
     */
    std::vector<std::vector<Mapping>>
    alignAllCandidates(const std::vector<Seq> &reads,
                       u32 max_candidates = 16);

    const GenAxPerf &perf() const { return _perf; }

    /** Host-time breakdown of the most recent pass (valid after
     *  streamEnd(); see GenAxHostProfile for what it is NOT). */
    const GenAxHostProfile &hostProfile() const { return _hostProfile; }

    const GenAxConfig &config() const { return _cfg; }
    const GenomeSegments &segments() const { return _segments; }

    /**
     * Per-read degradation flags of the most recent batch (for
     * alignAll / alignAllCandidates, the whole read set): flag r is
     * non-zero when at least one of read r's extension jobs fell
     * back to the software kernel (lane issue fault). The pipeline
     * drains these into its outcome ledger after each batch.
     */
    const std::vector<u8> &degradedReads() const { return _degraded; }

    /**
     * Area and power of a GenAx instance. SRAM is sized for the
     * given per-segment table footprints (pass the paper's human-
     * genome parameters to regenerate Table II).
     */
    static GenAxAreaPower areaPower(const GenAxConfig &cfg,
                                    u64 index_table_bytes,
                                    u64 position_table_bytes);

    /** Area/power for this instance's own segment sizing. */
    GenAxAreaPower areaPower() const;

    /**
     * Project the measured per-read/per-segment averages of a perf
     * report onto a different workload scale — e.g. the paper's
     * whole-genome run (787,265,109 reads, 3.08 Gbp reference, 512
     * segments) — keeping the same architecture configuration.
     */
    struct Projection
    {
        double seedingSeconds = 0;
        double extensionSeconds = 0;
        double dramSeconds = 0;
        double totalSeconds = 0;
        double readsPerSecond = 0;
    };
    static Projection project(const GenAxConfig &cfg,
                              const GenAxPerf &measured, u64 reads,
                              u64 read_len, u64 genome_len,
                              u64 segments);

  private:
    struct StreamState; //!< per-pass accumulators (system.cc)

    const Seq &_ref;
    GenAxConfig _cfg;
    GenomeSegments _segments;
    /** The whole-reference k-mer index: the snapshot's, or built at
     *  construction. */
    SeedIndex _index;
    /** Segment i's window of _index. */
    std::vector<SeedIndex> _windows;
    DramModel _dram;
    GenAxPerf _perf;
    GenAxHostProfile _hostProfile; //!< host time of the latest pass
    std::vector<u8> _degraded; //!< per-batch fallback flags
    std::unique_ptr<StreamState> _stream;
};

} // namespace genax

#endif // GENAX_GENAX_SYSTEM_HH
