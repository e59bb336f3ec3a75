/**
 * @file
 * File-to-file alignment pipeline: FASTA reference + FASTQ reads in,
 * SAM out — the driver behind the genax_align command-line tool —
 * and the alignment engine it shares with the serving daemon.
 *
 * Multi-contig references are concatenated into one coordinate space
 * with a contig map so SAM records carry per-contig names and
 * positions. Two engines are selectable: the GenAx accelerator model
 * and the BWA-MEM-like software baseline.
 */

#ifndef GENAX_GENAX_PIPELINE_HH
#define GENAX_GENAX_PIPELINE_HH

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "align/mapping.hh"
#include "genax/system.hh"
#include "io/fasta.hh"
#include "io/fastq.hh"
#include "io/sam.hh"
#include "seed/index_snapshot.hh"
#include "swbase/bwamem_like.hh"

namespace genax {

/** Concatenated multi-contig reference with coordinate mapping. */
class ContigMap
{
  public:
    explicit ContigMap(const std::vector<FastaRecord> &contigs);

    /** The same map, taking the records' bases instead of copying
     *  them: a single contig's bases become the sequence as they are,
     *  and each of several is freed once appended. Leaves `contigs`
     *  empty. */
    explicit ContigMap(std::vector<FastaRecord> &&contigs);

    const Seq &sequence() const { return _seq; }

    /** Contig descriptors for the SAM header. */
    struct Contig
    {
        std::string name;
        u64 start;
        u64 length;
    };
    const std::vector<Contig> &contigs() const { return _contigs; }

    /**
     * Map a concatenated-space position to (contig index, local
     * position). Positions in the inter-contig padding map to the
     * preceding contig's end.
     */
    std::pair<size_t, u64> locate(u64 pos) const;

    /** The @SQ lines of a SAM header for this reference. */
    std::vector<SamRefSeq> samHeader() const;

  private:
    Seq _seq;
    std::vector<Contig> _contigs;
};

/**
 * SAM record for a read and its mapping — the one formatting path
 * shared by the offline pipeline and the serving layer. Orientation,
 * contig translation, CIGAR text, score and quality handling all live
 * here, so "same read, same reference, same config" produces the same
 * SAM bytes no matter which front end asked. An unmapped mapping
 * (e.g. `Mapping{}` for a read lost before alignment) gives the
 * unmapped placeholder record.
 */
SamRecord pipelineSamRecord(const ContigMap &contigs,
                            const FastqRecord &read, const Mapping &m);

/**
 * Outcome of the snapshot attach policy (see attachIndexSnapshot).
 * When `snapshot` is engaged the attachment must outlive any
 * GenAxConfig it was applied to — the config holds a pointer into it.
 */
struct IndexAttachment
{
    std::optional<IndexSnapshot> snapshot;
    bool fromSnapshot = false; //!< indexes served from the file
    bool mapped = false;       //!< snapshot backing is the mmap path
    bool fallback = false;     //!< unusable; rebuild from the FASTA
    std::string note;          //!< human-readable outcome
};

/**
 * Snapshot attach policy, applied by AlignEngine::create for every
 * front end. Opens `path` and decides how a run gets its k-mer
 * index:
 *
 *  - fingerprint mismatch against the parsed reference → hard error
 *    (a snapshot must never be applied to the wrong reference);
 *  - corruption or IO trouble opening it → degrade to the
 *    rebuild-from-FASTA path (`fallback` set, note recorded);
 *  - otherwise the attachment carries the opened snapshot.
 */
StatusOr<IndexAttachment> attachIndexSnapshot(const std::string &path,
                                              const Seq &refseq);

/** Apply an attachment to a GenAx config: the snapshot's build
 *  parameters are authoritative and the engine seeds against its
 *  index. A snapshot-less attachment is a no-op. */
void applyIndexAttachment(GenAxConfig &cfg,
                          const IndexAttachment &att);

/** Largest edit bound / extension band an engine accepts: banded
 *  Gotoh keeps (n + 1) * (2 * band + 1) bytes of traceback per job,
 *  over windows of n = read length + band bases. It lies above
 *  kMaxSillaK, so a band between the two degrades a GenAx run to the
 *  software engine. */
inline constexpr u32 kMaxBand = 8192;

/**
 * Engine settings: what AlignEngine needs to build an engine. The
 * offline pipeline (PipelineOptions) and the serving daemon
 * (ServiceConfig) share them, so one set of flags means the same
 * engine in either front end.
 */
struct EngineOptions
{
    enum class Engine
    {
        GenAx,    //!< accelerator model
        Software, //!< BWA-MEM-like CPU baseline
    };
    Engine engine = Engine::GenAx;
    u32 k = 12;
    u32 band = 40;         //!< edit bound / extension band
    u64 segments = 8;      //!< GenAx engine only
    u64 segmentOverlap = 256;
    /** Host worker threads for either engine; 0 = all hardware
     *  threads. Output and modelled results are identical at any
     *  width. */
    unsigned threads = 1;
    /**
     * Optional path to a pre-built index snapshot (genax_index
     * writes one). When set, either engine seeds against the
     * snapshot's whole-reference index, zero-copy, and builds none;
     * the snapshot's k (and, for GenAx, its segment count and
     * overlap) override the fields above so the output matches the
     * build. The snapshot's reference fingerprint must match the
     * parsed FASTA — a mismatch fails the run (a snapshot is never
     * applied to the wrong reference). A corrupt or unreadable
     * snapshot degrades to the rebuild-from-FASTA path and is
     * recorded in PipelineResult::indexFallback / indexNote. SAM
     * bytes, the ledger and the modelled perf report are identical
     * with or without a matching snapshot.
     */
    std::string indexSnapshot;
};

/** Pipeline configuration: the engine settings plus how reads are
 *  read from a file. */
struct PipelineOptions : EngineOptions
{
    /** Malformed input records tolerated (skipped and counted) per
     *  input file before the run fails with InvalidInput. */
    u64 maxMalformed = 1000;
    /**
     * Streaming batch size in reads, or in templates on paired input
     * (see alignStreamToSam()); 0 = one unbounded batch, the whole
     * read file. Peak host memory is O(batch), while output is
     * byte-identical at any batch size and thread count (DESIGN.md
     * "Memory & streaming").
     */
    u64 batchReads = 0;
};

/**
 * The alignment engine behind every front end — the pipeline driver
 * and the serving daemon (serve/service.hh) — and usable without
 * either.
 *
 * create() makes the run's set-up decisions: the reference check, the
 * snapshot attach policy (attachIndexSnapshot) and the
 * degrade-to-software decision, where an edit bound beyond what a
 * SillaX lane supports moves the whole run to the software engine and
 * flags every read it maps as degraded. begin() constructs exactly
 * one of GenAxSystem / BwaMemLike and opens its stream, batch() (or
 * batchCandidates()) aligns one batch, end() closes the stream.
 * Mappings do not depend on how reads are split into batches: fault
 * keys and perf accounting use the global read index.
 *
 * Pinned in memory: the engines hold references to
 * contigs().sequence().
 */
class AlignEngine
{
  public:
    /** Check the reference, concatenate its contigs, attach
     *  opts.indexSnapshot and decide which engine runs. A band above
     *  kMaxBand is InvalidInput; a snapshot of another reference is
     *  FailedPrecondition. */
    static StatusOr<std::unique_ptr<AlignEngine>>
    create(const std::vector<FastaRecord> &ref, const EngineOptions &opts);

    /** The same, handing the records to the engine's ContigMap rather
     *  than copying them (the file front ends' one copy). */
    static StatusOr<std::unique_ptr<AlignEngine>>
    create(std::vector<FastaRecord> &&ref, const EngineOptions &opts);

    AlignEngine(const AlignEngine &) = delete;
    AlignEngine &operator=(const AlignEngine &) = delete;

    const ContigMap &contigs() const { return _contigs; }
    const IndexAttachment &indexAttachment() const { return _attach; }
    /** The run degraded from GenAx to the software engine. */
    bool softwareFallback() const { return _softwareFallback; }

    /** The software engine once begun, else nullptr. */
    const BwaMemLike *
    softwareEngine() const
    {
        return _aligner ? &*_aligner : nullptr;
    }

    /** Construct the engine and open its stream. */
    void begin();

    /** One batch's results, parallel to its reads. */
    struct Batch
    {
        std::vector<Mapping> maps;
        /** Non-zero where a read went through a fallback path. */
        std::vector<u8> degraded;
    };
    Batch batch(const std::vector<Seq> &seqs);

    /** The candidates form of batch(): each read's distinct
     *  placements (at most `max_candidates`, in rank order, MAPQ
     *  unset), the input of a stage downstream of the engine
     *  such as pairing (swbase/paired.hh). Shares batch()'s read
     *  indexing, so the two may be mixed within one stream. */
    struct CandidateBatch
    {
        std::vector<std::vector<Mapping>> candidates;
        /** Non-zero where a read went through a fallback path. */
        std::vector<u8> degraded;
    };
    CandidateBatch batchCandidates(const std::vector<Seq> &seqs,
                                   u32 max_candidates);

    /** Close the stream (idempotent). perf() and hostProfile() then
     *  cover every batch; both stay empty on the software engine. */
    void end();
    const GenAxPerf &perf() const { return _perf; }
    const GenAxHostProfile &hostProfile() const { return _hostProfile; }

    /** Reads aligned so far, over every batch. */
    u64 readsAligned() const { return _base; }

  private:
    AlignEngine(ContigMap &&contigs, const EngineOptions &opts)
        : _opts(opts), _contigs(std::move(contigs)) {}

    const EngineOptions _opts;
    const ContigMap _contigs;
    IndexAttachment _attach;
    bool _softwareFallback = false;
    std::optional<GenAxSystem> _system; //!< GenAx engine
    std::optional<BwaMemLike> _aligner; //!< software engine
    bool _open = false;
    u64 _base = 0;
    GenAxPerf _perf;
    GenAxHostProfile _hostProfile;
};

/**
 * Summary of one pipeline run.
 *
 * The per-read outcome ledger is disjoint: every read encountered in
 * the input lands in exactly one of mapped / unmapped /
 * skippedMalformed / degraded / failed, so the categories sum back to
 * `reads`.
 */
struct PipelineResult
{
    u64 reads = 0;   //!< reads encountered, including skipped ones
    u64 mapped = 0;  //!< aligned entirely on the configured engine
    u64 unmapped = 0;
    u64 skippedMalformed = 0; //!< unparseable records skipped by IO
    u64 degraded = 0; //!< mapped, but via a fallback path
    u64 failed = 0;   //!< lost to an unrecoverable per-read fault
    /** The whole run fell back from GenAx to the software engine
     *  (e.g. the requested band exceeds the SillaX edit bound). */
    bool softwareFallback = false;
    double seconds = 0;  //!< wall-clock of the alignment phase
    GenAxPerf perf;      //!< populated for the GenAx engine
    /** Host wall-clock per model phase (GenAx engine only) —
     *  profiling output, not part of the modelled report or any
     *  determinism contract. */
    GenAxHostProfile hostProfile;
    ReaderStats refInput;  //!< reference parse stats (file API only)
    ReaderStats readInput; //!< read parse stats (file API only)
    /** @name Index snapshot disposition (opts.indexSnapshot only) */
    ///@{
    bool indexFromSnapshot = false; //!< indexes served from the file
    bool indexMapped = false;  //!< snapshot backing is the mmap path
    bool indexFallback = false; //!< snapshot unusable; indexes were
                                //!< rebuilt from the FASTA reference
    std::string indexNote; //!< human-readable snapshot outcome
    ///@}

    /** Every read accounted for in exactly one category. */
    bool
    ledgerBalanced() const
    {
        return mapped + unmapped + skippedMalformed + degraded +
                   failed ==
               reads;
    }
};

/**
 * Align reads against a (possibly multi-contig) reference and write
 * SAM records to `out`. The reads go through the pipeline driver as
 * one batch, aligned in place. Recoverable failures (no usable
 * reference, snapshot of another reference, SAM write failure) come
 * back as a Status; per-read trouble is absorbed into the result's
 * outcome ledger instead.
 */
StatusOr<PipelineResult>
alignToSam(const std::vector<FastaRecord> &ref,
           const std::vector<FastqRecord> &reads, std::ostream &out,
           const PipelineOptions &opts);

/**
 * The pipeline driver over a FastqReader: reads flow through the
 * engine in batches of opts.batchReads (0 = one unbounded batch).
 * With more than one batch and more than one worker, a reader thread
 * prefetches the next batch while the current one aligns and an
 * in-order writer thread drains finished batches to `out`, so parse /
 * align / emit overlap. Otherwise the stages run synchronously on the
 * calling thread, writing records straight to `out` — nothing could
 * overlap and the queue hand-offs would be pure overhead — with
 * byte-identical output and fault replay. A reader failure (IO error,
 * malformed budget exhausted) while reading the first batch returns
 * before any SAM byte is written; later, it surfaces after earlier
 * batches' records were already written.
 */
StatusOr<PipelineResult>
alignStreamToSam(const std::vector<FastaRecord> &ref,
                 FastqReader &reads, std::ostream &out,
                 const PipelineOptions &opts);

/** File-path wrapper over alignStreamToSam(); IO failures surface as
 *  Status, and reader failures carry the FASTQ file's path. The
 *  output file is opened once the first batch is read, so a run that
 *  fails reading it leaves none behind. */
StatusOr<PipelineResult> alignFiles(const std::string &ref_fasta,
                                    const std::string &reads_fastq,
                                    const std::string &out_sam,
                                    const PipelineOptions &opts);

/**
 * Paired-end alignment (FR libraries): r1/r2 records pair up by
 * index, and mate lists of different lengths are InvalidInput, with
 * nothing written. The templates go through the pipeline driver as
 * one batch on opts.engine: the engine's candidate lists for both
 * mates feed the pairing stage (swbase/paired.hh), which sits
 * downstream of either engine (the paper's GenAx evaluates
 * single-ended reads). Emits both mates with paired SAM flags, mate
 * coordinates and template length; a template lost to a per-read
 * fault gives two unmapped placeholders.
 */
StatusOr<PipelineResult>
alignPairsToSam(const std::vector<FastaRecord> &ref,
                const std::vector<FastqRecord> &reads1,
                const std::vector<FastqRecord> &reads2,
                std::ostream &out, const PipelineOptions &opts);

/** alignFiles() for paired-end mode: both mate files stream in
 *  lockstep batches of opts.batchReads templates. Mate files that
 *  differ in read count are InvalidInput at the first batch where
 *  they diverge (before the output file is opened when that is the
 *  first batch). */
StatusOr<PipelineResult> alignPairFiles(const std::string &ref_fasta,
                                        const std::string &reads1_fastq,
                                        const std::string &reads2_fastq,
                                        const std::string &out_sam,
                                        const PipelineOptions &opts);

} // namespace genax

#endif // GENAX_GENAX_PIPELINE_HH
