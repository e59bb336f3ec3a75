/**
 * @file
 * Load-once alignment service: the daemon-resident engine the
 * batcher drives.
 *
 * AlignService is the SAM header, one AlignEngine (genax/pipeline.hh)
 * and record formatting. Creating it does everything an offline
 * `genax_align --index` run does once per invocation — the reference
 * check, the snapshot attach policy (zero-copy mmap when the snapshot
 * is healthy, rebuild-from-FASTA degradation when it is corrupt or
 * missing, hard FailedPrecondition on a reference mismatch), the
 * degrade-to-software decision and engine construction — through the
 * same engine, so every request after that pays only alignment,
 * never startup.
 *
 * Byte-identity contract: per-read mappings are a pure function of
 * (read, reference, config) — batch composition and the stream's
 * base read index only key fault injection and perf accounting — and
 * SAM text is produced by the exact pipelineSamRecord formatting the
 * offline pipeline uses, under the same SamWriter header. A client
 * that writes headerText() plus its returned lines therefore
 * reproduces, byte for byte, the SAM an offline `genax_align --index`
 * run over its reads would have written (tests/test_determinism.cc
 * pins this at multiple clients × batch sizes × thread counts).
 *
 * Not thread-safe: exactly one caller (the batcher's worker thread)
 * may touch alignBatch()/finish() — the engine's stream state is
 * single-owner by design, which is precisely why the batcher
 * serializes cross-client batches in front of it.
 */

#ifndef GENAX_SERVE_SERVICE_HH
#define GENAX_SERVE_SERVICE_HH

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "genax/pipeline.hh"
#include "io/fasta.hh"
#include "io/fastq.hh"

namespace genax {

/** Engine settings for one daemon lifetime — the offline
 *  pipeline's, so the same flags build the same engine. */
using ServiceConfig = EngineOptions;

/** One batch's results: SAM lines plus per-read outcomes. */
struct BatchOutcome
{
    /** One SAM line per read (trailing newline included), in input
     *  order. */
    std::vector<std::string> samLines;
    /** Per-read outcome code, parallel to samLines. */
    enum : u8
    {
        kMapped = 0,
        kUnmapped = 1,
        kDegraded = 2,
    };
    std::vector<u8> outcomes;
    u64 mapped = 0;
    u64 unmapped = 0;
    u64 degraded = 0;
};

class AlignService
{
  public:
    /** Parse nothing — the reference is already in memory. Creates
     *  the engine and opens its stream. */
    static StatusOr<std::unique_ptr<AlignService>>
    create(const std::vector<FastaRecord> &ref, const ServiceConfig &cfg);

    ~AlignService();
    AlignService(const AlignService &) = delete;
    AlignService &operator=(const AlignService &) = delete;

    /** SAM header text (@HD/@SQ/@PG) for this reference. */
    const std::string &headerText() const { return _header; }

    /** Align one cross-client batch (single-caller; see file
     *  header). */
    BatchOutcome alignBatch(const std::vector<FastqRecord> &reads);

    /** Close the engine stream (idempotent; called at shutdown). */
    void finish();

    /** Snapshot disposition for startup logs / stats. */
    const IndexAttachment &
    indexAttachment() const
    {
        return _engine->indexAttachment();
    }

    /** Whole service degraded to the software engine (band beyond
     *  the SillaX bound). */
    bool softwareFallback() const { return _engine->softwareFallback(); }

    u64 readsServed() const { return _engine->readsAligned(); }

    /** The engine behind the service. */
    const AlignEngine &engine() const { return *_engine; }

  private:
    explicit AlignService(std::unique_ptr<AlignEngine> engine);

    std::unique_ptr<AlignEngine> _engine;

    /** Persistent SAM formatting stage: the writer emits its header
     *  once at construction (captured into _header), then each
     *  batch's records are staged here and split back per read. */
    std::ostringstream _stage;
    SamWriter _sam;
    std::string _header;
};

} // namespace genax

#endif // GENAX_SERVE_SERVICE_HH
