#include "genax/pipeline.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <functional>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/annotations.hh"
#include "common/check.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"
#include "io/sam.hh"
#include "seed/index_snapshot.hh"
#include "silla/silla.hh"
#include "swbase/paired.hh"

namespace genax {

static_assert(kMaxBand > kMaxSillaK,
              "a band the SillaX lanes refuse must still reach the "
              "software engine");

ContigMap::ContigMap(const std::vector<FastaRecord> &contigs)
    : ContigMap(std::vector<FastaRecord>(contigs))
{
}

ContigMap::ContigMap(std::vector<FastaRecord> &&contigs)
{
    GENAX_CHECK(!contigs.empty(), "reference has no contigs");
    const bool one = contigs.size() == 1;
    if (!one) {
        u64 total = 0;
        for (const auto &rec : contigs)
            total += rec.seq.size();
        _seq.reserve(total);
    }
    for (auto &rec : contigs) {
        GENAX_CHECK(!rec.seq.empty(), "empty contig: ", rec.name);
        _contigs.push_back({std::move(rec.name), _seq.size(),
                            rec.seq.size()});
        if (one) {
            _seq = std::move(rec.seq);
        } else {
            _seq.insert(_seq.end(), rec.seq.begin(), rec.seq.end());
            Seq().swap(rec.seq);
        }
    }
    contigs.clear();
}

std::pair<size_t, u64>
ContigMap::locate(u64 pos) const
{
    GENAX_CHECK(pos < _seq.size(), "position beyond reference");
    // Binary search over contig starts.
    size_t lo = 0, hi = _contigs.size() - 1;
    while (lo < hi) {
        const size_t mid = (lo + hi + 1) / 2;
        if (_contigs[mid].start <= pos)
            lo = mid;
        else
            hi = mid - 1;
    }
    return {lo, pos - _contigs[lo].start};
}

std::vector<SamRefSeq>
ContigMap::samHeader() const
{
    std::vector<SamRefSeq> refs;
    refs.reserve(_contigs.size());
    for (const auto &c : _contigs)
        refs.push_back({c.name, c.length});
    return refs;
}

SamRecord
pipelineSamRecord(const ContigMap &contigs, const FastqRecord &read,
                  const Mapping &m)
{
    SamRecord rec;
    rec.qname = read.name;
    const Seq &oriented_seq = m.mapped && m.reverse
                                  ? reverseComplement(read.seq)
                                  : read.seq;
    rec.seq = decode(oriented_seq);
    if (!m.mapped) {
        rec.flag = kSamUnmapped;
    } else {
        const auto [ci, local] = contigs.locate(m.pos);
        rec.flag = m.reverse ? kSamReverse : 0;
        rec.rname = contigs.contigs()[ci].name;
        rec.pos = local;
        rec.mapq = m.mapq;
        rec.cigar = m.cigar.strSamM();
        rec.score = m.score;
        rec.editDistance = static_cast<i32>(m.cigar.editDistance());
    }
    rec.qual = phredToAscii(read.qual, m.mapped && m.reverse);
    return rec;
}

namespace {

/**
 * Single-producer single-consumer bounded queue connecting the
 * streaming pipeline's stages. close() wakes both sides: a blocked
 * pop() drains the remaining items and then reports exhaustion; a
 * blocked push() gives up (the consumer is gone).
 */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(size_t capacity) : _capacity(capacity) {}

    /** False when the queue was closed and the item dropped. */
    bool
    push(T item)
    {
        const MutexLock lk(_mu);
        while (_items.size() >= _capacity && !_closed)
            _notFull.wait(_mu);
        if (_closed)
            return false;
        _items.push_back(std::move(item));
        _notEmpty.notifyOne();
        return true;
    }

    /** Next item; empty once the queue is closed and drained. */
    std::optional<T>
    pop()
    {
        const MutexLock lk(_mu);
        while (_items.empty() && !_closed)
            _notEmpty.wait(_mu);
        if (_items.empty())
            return std::nullopt;
        T out = std::move(_items.front());
        _items.pop_front();
        _notFull.notifyOne();
        return out;
    }

    void
    close()
    {
        const MutexLock lk(_mu);
        _closed = true;
        _notEmpty.notifyAll();
        _notFull.notifyAll();
    }

  private:
    const size_t _capacity;
    Mutex _mu;
    CondVar _notFull, _notEmpty;
    std::deque<T> _items GENAX_GUARDED_BY(_mu);
    bool _closed GENAX_GUARDED_BY(_mu) = false;
};

Status
validateReference(const std::vector<FastaRecord> &ref)
{
    if (ref.empty())
        return invalidInputError("reference has no usable contigs");
    for (const auto &rec : ref) {
        if (rec.seq.empty())
            return invalidInputError("reference contig '" + rec.name +
                                     "' is empty");
    }
    return okStatus();
}

/** The software engine's settings for `opts`. */
AlignerConfig
alignerConfig(const EngineOptions &opts)
{
    AlignerConfig cfg;
    cfg.k = opts.k;
    cfg.band = opts.band;
    cfg.threads = opts.threads;
    return cfg;
}

} // namespace

StatusOr<IndexAttachment>
attachIndexSnapshot(const std::string &path, const Seq &refseq)
{
    IndexAttachment att;
    auto opened = IndexSnapshot::open(path);
    if (!opened.ok()) {
        att.fallback = true;
        att.note = "index snapshot unusable, rebuilding from "
                   "FASTA: " +
                   opened.status().str();
        GENAX_WARN("index snapshot ", path,
                   " unusable; building the index from the reference: ",
                   opened.status().str());
        return att;
    }
    IndexSnapshot snap = std::move(*opened);
    const IndexFingerprint want =
        referenceFingerprint(refseq, snap.k());
    GENAX_TRY(checkFingerprint(snap.fingerprint(), want)
                  .withContext("index snapshot " + path));
    att.fromSnapshot = true;
    att.mapped = snap.mapped();
    att.note = std::string("index snapshot attached (") +
               (snap.mapped() ? "mmap" : "owned read") + ")";
    att.snapshot = std::move(snap);
    return att;
}

void
applyIndexAttachment(GenAxConfig &cfg, const IndexAttachment &att)
{
    if (!att.snapshot)
        return;
    cfg.k = att.snapshot->k();
    cfg.segmentCount = att.snapshot->segmentCount();
    cfg.segmentOverlap = att.snapshot->segmentOverlap();
    cfg.snapshot = &*att.snapshot;
}

StatusOr<std::unique_ptr<AlignEngine>>
AlignEngine::create(const std::vector<FastaRecord> &ref,
                    const EngineOptions &opts)
{
    return create(std::vector<FastaRecord>(ref), opts);
}

StatusOr<std::unique_ptr<AlignEngine>>
AlignEngine::create(std::vector<FastaRecord> &&ref,
                    const EngineOptions &opts)
{
    GENAX_TRY(validateReference(ref));
    if (opts.band > kMaxBand)
        return invalidInputError("band " + std::to_string(opts.band) +
                                 " exceeds the maximum " +
                                 std::to_string(kMaxBand));
    // No make_unique: the constructor is private.
    // genax-lint: allow(naked-new): one engine per run, not per-read scratch
    auto *made = new AlignEngine(ContigMap(std::move(ref)), opts);
    std::unique_ptr<AlignEngine> engine(made);
    if (!opts.indexSnapshot.empty()) {
        GENAX_TRY_ASSIGN(engine->_attach,
                         attachIndexSnapshot(opts.indexSnapshot,
                                             engine->_contigs.sequence()));
    }
    // Graceful degradation: an edit bound beyond what a SillaX lane
    // supports cannot run on the accelerator model at all.
    if (opts.engine == EngineOptions::Engine::GenAx &&
        opts.band > kMaxSillaK) {
        GENAX_WARN("edit bound ", opts.band,
                   " exceeds the SillaX maximum ", kMaxSillaK,
                   "; degrading the run to the software engine");
        engine->_softwareFallback = true;
    }
    return engine;
}

void
AlignEngine::begin()
{
    GENAX_CHECK(!_system && !_aligner, "AlignEngine begun twice");
    if (_opts.engine == EngineOptions::Engine::GenAx &&
        !_softwareFallback) {
        GenAxConfig cfg;
        cfg.k = _opts.k;
        cfg.editBound = _opts.band;
        cfg.segmentCount = _opts.segments;
        cfg.segmentOverlap = _opts.segmentOverlap;
        cfg.threads = _opts.threads;
        applyIndexAttachment(cfg, _attach);
        _system.emplace(_contigs.sequence(), cfg);
        _system->streamBegin();
    } else if (_attach.snapshot) {
        _aligner.emplace(_contigs.sequence(), alignerConfig(_opts),
                         _attach.snapshot->index());
    } else {
        _aligner.emplace(_contigs.sequence(), alignerConfig(_opts));
    }
    _open = true;
}

AlignEngine::Batch
AlignEngine::batch(const std::vector<Seq> &seqs)
{
    GENAX_CHECK(_open, "AlignEngine::batch() outside begin()/end()");
    Batch out;
    if (_system) {
        out.maps = _system->streamBatch(seqs, _base);
        out.degraded = _system->degradedReads();
    } else if (_aligner) {
        out.maps = _aligner->alignAll(seqs);
        out.degraded.assign(seqs.size(), _softwareFallback ? 1 : 0);
    }
    _base += seqs.size();
    return out;
}

AlignEngine::CandidateBatch
AlignEngine::batchCandidates(const std::vector<Seq> &seqs,
                             u32 max_candidates)
{
    GENAX_CHECK(_open,
                "AlignEngine::batchCandidates() outside begin()/end()");
    CandidateBatch out;
    if (_system) {
        out.candidates =
            _system->streamBatchCandidates(seqs, _base, max_candidates);
        out.degraded = _system->degradedReads();
    } else if (_aligner) {
        out.candidates =
            _aligner->alignAllCandidates(seqs, max_candidates);
        out.degraded.assign(seqs.size(), _softwareFallback ? 1 : 0);
    }
    _base += seqs.size();
    return out;
}

void
AlignEngine::end()
{
    if (!_open)
        return;
    _open = false;
    if (_system) {
        _system->streamEnd();
        _perf = _system->perf();
        _hostProfile = _system->hostProfile();
    }
}

namespace {

/** Ranked placements the engine keeps per mate for resolvePair. */
constexpr u32 kCandidatesPerMate = 16;

/** One read stream of the driver: a FASTQ reader drained in batches,
 *  or one batch the caller already holds in memory (exactly one is
 *  set). */
struct ReadSource
{
    FastqReader *reader = nullptr;
    const std::vector<FastqRecord> *reads = nullptr;
    /** Prefixed to the reader's failures, e.g. "FASTQ file 'x'". */
    std::string context;
};

/** One parsed batch of templates: a read each, and on paired input
 *  its mate. */
struct Templates
{
    std::vector<FastqRecord> reads;
    std::vector<FastqRecord> mates;
};

/** A mate's SAM record: pipelineSamRecord() plus the pair fields. */
SamRecord
pairedRecord(const ContigMap &contigs, const FastqRecord &read,
             const PairMapping &pair, bool is_read1)
{
    const Mapping &self = is_read1 ? pair.r1 : pair.r2;
    const Mapping &mate = is_read1 ? pair.r2 : pair.r1;
    SamRecord rec = pipelineSamRecord(contigs, read, self);
    rec.flag |= kSamPaired | (is_read1 ? kSamRead1 : kSamRead2);
    if (!mate.mapped) {
        rec.flag |= kSamMateUnmapped;
        return rec;
    }
    if (mate.reverse)
        rec.flag |= kSamMateReverse;
    const auto [mci, mlocal] = contigs.locate(mate.pos);
    const bool same_contig =
        self.mapped && contigs.locate(self.pos).first == mci;
    rec.rnext = same_contig ? "=" : contigs.contigs()[mci].name;
    rec.pnext = mlocal;
    // Pairing works in concatenated coordinates; mates on different
    // contigs are not a proper pair.
    if (pair.proper && same_contig) {
        rec.flag |= kSamProperPair;
        // Leftmost mate carries +tlen, rightmost -tlen.
        rec.tlen = self.pos <= mate.pos ? pair.templateLen
                                        : -pair.templateLen;
    }
    return rec;
}

/**
 * The one pipeline driver: every front end streams its reads through
 * here, batch by batch, into the AlignEngine it created, and gets SAM
 * in input order plus the outcome ledger back. With `mates` set the
 * input is paired: both sources are read in lockstep batches of
 * templates, each template is resolved from its mates' candidate
 * lists (swbase/paired.hh) and emits both mates' records. `open_out`,
 * when set, opens `out` once the first batch is in hand, so a run
 * that fails reading it leaves no output file behind.
 */
StatusOr<PipelineResult>
drive(AlignEngine &engine, const ReadSource &src, const ReadSource *mates,
      std::ostream &out, const PipelineOptions &opts,
      const std::function<Status()> &open_out = {})
{
    const ContigMap &contigs = engine.contigs();
    PipelineResult res;
    res.softwareFallback = engine.softwareFallback();
    const IndexAttachment &att = engine.indexAttachment();
    res.indexFromSnapshot = att.fromSnapshot;
    res.indexMapped = att.mapped;
    res.indexFallback = att.fallback;
    res.indexNote = att.note;

    const u64 batch_size =
        opts.batchReads == 0 ? ~u64{0} : opts.batchReads;
    const auto parse = [&](const ReadSource &from)
        -> StatusOr<std::vector<FastqRecord>> {
        auto batch = from.reader->nextBatch(batch_size);
        if (from.context.empty())
            return batch;
        return std::move(batch).withContext(from.context);
    };
    const auto parse_batch = [&]() -> StatusOr<Templates> {
        Templates batch;
        GENAX_TRY_ASSIGN(batch.reads, parse(src));
        if (mates) {
            GENAX_TRY_ASSIGN(batch.mates, parse(*mates));
        }
        return batch;
    };

    // IO-overlap policy: overlap needs more than one batch — with one,
    // parsing, aligning and writing it are strictly sequential, and a
    // writer thread would have to hold the whole SAM text — and more
    // than one worker: at width 1 parallelFor already runs inline, so
    // reader and writer threads plus their queue hand-offs would be
    // pure dispatch overhead. Without overlap this thread parses,
    // aligns and writes synchronously. Record order, every fault
    // site's ordinal stream and the SAM byte stream are identical
    // either way: the threaded reader parses strictly sequentially and
    // the writer drains in batch order.
    const bool overlap = src.reader && opts.batchReads > 0 &&
                         ThreadPool::resolveWidth(opts.threads) > 1;

    // Reader stage: one prefetch thread keeps the next batch in
    // flight while the current one aligns. The parse itself stays
    // strictly sequential on that thread, so record order — and the
    // parser fault sites' per-site ordinal replay — is exactly what
    // a synchronous read would produce.
    BoundedQueue<StatusOr<Templates>> parsed(1);
    std::thread reader_thread;
    if (overlap) {
        reader_thread = std::thread([&] {
            for (;;) {
                auto batch = parse_batch();
                const bool stop = !batch.ok() || batch->reads.empty();
                if (!parsed.push(std::move(batch)))
                    break; // aligner bailed out; stop reading
                if (stop)
                    break;
            }
            parsed.close();
        });
    }

    // Writer stage: records are formatted on this thread (keeping the
    // sam.write fault ordinals in emission order), straight into `out`
    // or, with overlap, into an in-memory stage whose text the writer
    // thread drains to `out` in batch order. An injected write fault
    // poisons the stream it formats into exactly like a real device
    // error poisons a file stream, and is checked the same way at the
    // end of the run. The header waits for the first batch, so a
    // failure reading it writes nothing.
    std::ostringstream stage;
    std::ostream &sam_out =
        overlap ? static_cast<std::ostream &>(stage) : out;
    std::optional<SamWriter> sam;
    BoundedQueue<std::string> emitted(2);
    std::thread writer_thread;
    if (overlap) {
        writer_thread = std::thread([&] {
            while (auto text = emitted.pop())
                out.write(text->data(),
                          static_cast<std::streamsize>(text->size()));
        });
    }
    const auto flush_stage = [&] {
        if (!overlap)
            return;
        std::string text = stage.str();
        stage.str(std::string());
        if (!text.empty())
            emitted.push(std::move(text));
    };

    // The batch in hand: the caller's reads (handed out once, never
    // copied) or the reader's next batch; empty at end of input. Mates
    // pair up by index, so on paired input the files must agree in
    // read count at every batch.
    bool handed_out = false;
    Templates parsed_batch;
    u64 reads_seen = 0, mates_seen = 0;
    struct InHand
    {
        const std::vector<FastqRecord> *reads;
        const std::vector<FastqRecord> *mates;
    };
    const auto next_batch = [&]() -> StatusOr<InHand> {
        parsed_batch = Templates{};
        InHand batch{&parsed_batch.reads, &parsed_batch.mates};
        if (!src.reader) {
            if (!handed_out)
                batch = {src.reads, mates ? mates->reads : nullptr};
            handed_out = true;
        } else {
            StatusOr<Templates> next = Templates{};
            if (!overlap)
                next = parse_batch();
            else if (auto popped = parsed.pop())
                next = std::move(*popped);
            GENAX_TRY(next.status());
            parsed_batch = std::move(next).value();
        }
        if (mates) {
            reads_seen += batch.reads->size();
            mates_seen += batch.mates->size();
            if (reads_seen != mates_seen)
                return invalidInputError(
                    "mate files differ in read count: " +
                    std::to_string(reads_seen) + " vs " +
                    std::to_string(mates_seen) +
                    " records read (skipped malformed records can "
                    "desynchronize mates)");
        }
        return batch;
    };

    double align_seconds = 0;
    const auto timed = [&](auto &&fn) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        // genax-lint: allow(fp-accum): wall-time bookkeeping summed on the caller thread in batch order, not a modelled statistic
        align_seconds +=
            std::chrono::duration<double>(t1 - t0).count();
    };
    timed([&] { engine.begin(); });
    const auto tally = [&res](const Mapping &m, u8 via_fallback) {
        if (!m.mapped)
            ++res.unmapped;
        else if (via_fallback)
            ++res.degraded;
        else
            ++res.mapped;
    };

    Status failure = okStatus();
    for (;;) {
        auto next = next_batch();
        if (!next.ok()) {
            failure = next.status();
            break;
        }
        const std::vector<FastqRecord> &batch = *next->reads;
        if (!sam) {
            if (open_out)
                failure = open_out();
            if (!failure.ok())
                break;
            sam.emplace(sam_out, contigs.samHeader());
        }
        if (batch.empty())
            break;
        const u64 reads_per_template = mates ? 2 : 1;
        res.reads += batch.size() * reads_per_template;

        // Admission: the genax.pipeline.read fault point models a
        // template lost inside the pipeline (staging-buffer corruption
        // and the like). Its reads are Failed in the ledger and emitted
        // as unmapped placeholders so the SAM output stays
        // index-aligned with the input. It runs on this thread in input
        // order, so the site's ordinals are the same at any batch size.
        // An admitted template's reads sit side by side in the engine's
        // batch (read then mate), so a read's engine index, which keys
        // GenAx faults and perf, does not depend on the batch size
        // either.
        std::vector<u8> failed(batch.size(), 0);
        std::vector<Seq> seqs;
        seqs.reserve(batch.size() * reads_per_template);
        for (size_t t = 0; t < batch.size(); ++t) {
            if (faultFires(fault::kPipelineRead)) [[unlikely]] {
                failed[t] = 1;
                res.failed += reads_per_template;
                continue;
            }
            seqs.push_back(batch[t].seq);
            if (mates)
                seqs.push_back((*next->mates)[t].seq);
        }

        AlignEngine::Batch single;
        AlignEngine::CandidateBatch paired;
        timed([&] {
            if (mates)
                paired = engine.batchCandidates(seqs,
                                                kCandidatesPerMate);
            else
                single = engine.batch(seqs);
        });

        // Emission in input order; `live` indexes the engine's results,
        // which cover the admitted templates only.
        size_t live = 0;
        for (size_t t = 0; t < batch.size(); ++t) {
            if (!mates) {
                Mapping m;
                if (!failed[t]) {
                    m = std::move(single.maps[live]);
                    tally(m, single.degraded[live++]);
                }
                sam->write(pipelineSamRecord(contigs, batch[t], m));
                continue;
            }
            PairMapping pair;
            if (!failed[t]) {
                pair = resolvePair(paired.candidates[live],
                                   paired.candidates[live + 1]);
                tally(pair.r1, paired.degraded[live]);
                tally(pair.r2, paired.degraded[live + 1]);
                live += 2;
            }
            sam->write(pairedRecord(contigs, batch[t], pair, true));
            sam->write(
                pairedRecord(contigs, (*next->mates)[t], pair, false));
        }
        flush_stage();
    }
    flush_stage(); // the header alone, for an empty input

    if (failure.ok()) {
        timed([&] { engine.end(); });
        res.perf = engine.perf();
        res.hostProfile = engine.hostProfile();
    }
    res.seconds = align_seconds;

    // Wind down the IO stages (close() unblocks a reader stuck on a
    // full queue after an early exit).
    if (overlap) {
        parsed.close();
        reader_thread.join();
        emitted.close();
        writer_thread.join();
    }

    if (!failure.ok())
        return failure;
    if (!sam_out || !out)
        return ioError("failed writing SAM output after " +
                       std::to_string(res.reads) + " records");
    GENAX_CHECK(res.ledgerBalanced(),
                "pipeline ledger out of balance: ", res.mapped, "+",
                res.unmapped, "+", res.skippedMalformed, "+",
                res.degraded, "+", res.failed, " != ", res.reads);
    return res;
}

/**
 * The file front end of alignFiles() and alignPairFiles(): parse the
 * reference, drive the read file (and on paired input its mate file)
 * into a fresh engine, and open the output once the first batch is
 * read.
 */
StatusOr<PipelineResult>
alignFastqFiles(const std::string &ref_fasta,
                const std::vector<std::string> &fastqs,
                const std::string &out_sam, const PipelineOptions &opts)
{
    ReaderOptions ropts;
    ropts.maxMalformed = opts.maxMalformed;
    ReaderStats ref_stats;
    GENAX_TRY_ASSIGN(auto ref,
                     readFastaFile(ref_fasta, ropts, &ref_stats));
    std::ifstream in[2];
    std::optional<FastqReader> readers[2];
    ReadSource sources[2];
    for (size_t i = 0; i < fastqs.size(); ++i) {
        in[i].open(fastqs[i]);
        if (!in[i])
            return ioErrorFromErrno("cannot open FASTQ file", fastqs[i]);
        readers[i].emplace(in[i], ropts);
        sources[i] = {.reader = &*readers[i],
                      .reads = nullptr,
                      .context = "FASTQ file '" + fastqs[i] + "'"};
    }
    GENAX_TRY_ASSIGN(const auto engine,
                     AlignEngine::create(std::move(ref), opts));
    std::ofstream out;
    const auto open_out = [&]() -> Status {
        out.open(out_sam);
        if (!out)
            return ioErrorFromErrno("cannot open output SAM", out_sam);
        return okStatus();
    };
    GENAX_TRY_ASSIGN(
        PipelineResult res,
        drive(*engine, sources[0], readers[1] ? &sources[1] : nullptr,
              out, opts, open_out));
    // An ofstream buffers; ENOSPC/EIO may only surface at the final
    // flush, and the destructor swallows it — flush and check here
    // so a short SAM file can never look like success.
    out.flush();
    if (!out)
        return ioError("failed flushing SAM output to " + out_sam);
    res.refInput = ref_stats;
    res.readInput = readers[0]->stats();
    if (readers[1]) {
        const ReaderStats &r2 = readers[1]->stats();
        res.readInput.records += r2.records;
        res.readInput.malformed += r2.malformed;
        res.readInput.errors.insert(res.readInput.errors.end(),
                                    r2.errors.begin(), r2.errors.end());
    }
    res.skippedMalformed = res.readInput.malformed;
    res.reads += res.skippedMalformed;
    return res;
}

} // namespace

StatusOr<PipelineResult>
alignToSam(const std::vector<FastaRecord> &ref,
           const std::vector<FastqRecord> &reads, std::ostream &out,
           const PipelineOptions &opts)
{
    GENAX_TRY_ASSIGN(const auto engine, AlignEngine::create(ref, opts));
    return drive(*engine,
                 {.reader = nullptr, .reads = &reads, .context = ""},
                 nullptr, out, opts);
}

StatusOr<PipelineResult>
alignStreamToSam(const std::vector<FastaRecord> &ref,
                 FastqReader &reads, std::ostream &out,
                 const PipelineOptions &opts)
{
    GENAX_TRY_ASSIGN(const auto engine, AlignEngine::create(ref, opts));
    return drive(*engine,
                 {.reader = &reads, .reads = nullptr, .context = ""},
                 nullptr, out, opts);
}

StatusOr<PipelineResult>
alignFiles(const std::string &ref_fasta, const std::string &reads_fastq,
           const std::string &out_sam, const PipelineOptions &opts)
{
    return alignFastqFiles(ref_fasta, {reads_fastq}, out_sam, opts);
}

StatusOr<PipelineResult>
alignPairsToSam(const std::vector<FastaRecord> &ref,
                const std::vector<FastqRecord> &reads1,
                const std::vector<FastqRecord> &reads2,
                std::ostream &out, const PipelineOptions &opts)
{
    GENAX_TRY_ASSIGN(const auto engine, AlignEngine::create(ref, opts));
    const ReadSource mates{.reader = nullptr, .reads = &reads2,
                           .context = ""};
    return drive(*engine,
                 {.reader = nullptr, .reads = &reads1, .context = ""},
                 &mates, out, opts);
}

StatusOr<PipelineResult>
alignPairFiles(const std::string &ref_fasta,
               const std::string &reads1_fastq,
               const std::string &reads2_fastq,
               const std::string &out_sam, const PipelineOptions &opts)
{
    return alignFastqFiles(ref_fasta, {reads1_fastq, reads2_fastq},
                           out_sam, opts);
}

} // namespace genax
