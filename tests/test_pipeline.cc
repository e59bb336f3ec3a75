/**
 * @file
 * Integration tests for the file-to-file pipeline: multi-contig
 * coordinate mapping, SAM emission, both engines, a real
 * FASTA/FASTQ/SAM round trip through the filesystem, and the engine's
 * set-up policy as each front end (offline, streaming, served) sees
 * it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/faultinject.hh"
#include "genax/pipeline.hh"
#include "io/sam.hh"
#include "readsim/readsim.hh"
#include "readsim/refgen.hh"
#include "seed/index_snapshot.hh"
#include "serve/service.hh"
#include "silla/silla.hh"
#include "store_rewrite.hh"

namespace genax {
namespace {

std::vector<FastaRecord>
twoContigReference(u64 len_a, u64 len_b, u64 seed)
{
    RefGenConfig cfg;
    cfg.length = len_a;
    cfg.seed = seed;
    std::vector<FastaRecord> ref;
    ref.push_back({"chrA", generateReference(cfg)});
    cfg.length = len_b;
    cfg.seed = seed + 1;
    ref.push_back({"chrB", generateReference(cfg)});
    return ref;
}

TEST(ContigMap, LocateMapsAcrossContigs)
{
    std::vector<FastaRecord> ref;
    ref.push_back({"a", encode("ACGTACGT")}); // [0, 8)
    ref.push_back({"b", encode("TTTT")});     // [8, 12)
    ref.push_back({"c", encode("GG")});       // [12, 14)
    const ContigMap map(ref);
    EXPECT_EQ(map.sequence().size(), 14u);

    EXPECT_EQ(map.locate(0), (std::pair<size_t, u64>{0, 0}));
    EXPECT_EQ(map.locate(7), (std::pair<size_t, u64>{0, 7}));
    EXPECT_EQ(map.locate(8), (std::pair<size_t, u64>{1, 0}));
    EXPECT_EQ(map.locate(11), (std::pair<size_t, u64>{1, 3}));
    EXPECT_EQ(map.locate(12), (std::pair<size_t, u64>{2, 0}));
    EXPECT_EQ(map.locate(13), (std::pair<size_t, u64>{2, 1}));
}

TEST(Pipeline, MultiContigReadsLandOnTheRightContig)
{
    const auto ref = twoContigReference(60000, 40000, 77);

    // Error-free reads with known contig/position.
    std::vector<FastqRecord> reads;
    std::vector<std::pair<std::string, u64>> truth;
    Rng rng(5);
    for (int i = 0; i < 40; ++i) {
        const bool on_b = i % 2 == 1;
        const Seq &contig = ref[on_b ? 1 : 0].seq;
        const u64 pos = rng.below(contig.size() - 101);
        FastqRecord rec;
        rec.name = "r";
        rec.name += std::to_string(i);
        rec.seq = Seq(contig.begin() + static_cast<i64>(pos),
                      contig.begin() + static_cast<i64>(pos + 101));
        rec.qual.assign(101, 35);
        reads.push_back(std::move(rec));
        truth.emplace_back(on_b ? "chrB" : "chrA", pos);
    }

    PipelineOptions opts;
    opts.k = 11;
    opts.band = 16;
    opts.segments = 4;
    std::ostringstream sam;
    const auto status_or_res = alignToSam(ref, reads, sam, opts);
    ASSERT_TRUE(status_or_res.ok());
    const PipelineResult &res = *status_or_res;
    EXPECT_EQ(res.reads, reads.size());
    EXPECT_EQ(res.mapped, reads.size());
    EXPECT_TRUE(res.ledgerBalanced());
    EXPECT_EQ(res.degraded, 0u);
    EXPECT_EQ(res.failed, 0u);

    // Check every alignment line against the truth.
    std::istringstream in(sam.str());
    std::string line;
    size_t idx = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '@')
            continue;
        std::istringstream fields(line);
        std::string qname, flag, rname, pos;
        fields >> qname >> flag >> rname >> pos;
        ASSERT_LT(idx, truth.size());
        EXPECT_EQ(qname, "r" + std::to_string(idx));
        EXPECT_EQ(rname, truth[idx].first) << qname;
        EXPECT_EQ(static_cast<u64>(std::stoull(pos)),
                  truth[idx].second + 1) // SAM is 1-based
            << qname;
        ++idx;
    }
    EXPECT_EQ(idx, reads.size());
}

TEST(Pipeline, BothEnginesProduceSameMappedCount)
{
    const auto ref = twoContigReference(50000, 30000, 99);
    ContigMap map(ref);

    ReadSimConfig rs;
    rs.numReads = 60;
    rs.seed = 6;
    const auto sim = simulateReads(map.sequence(), rs);
    std::vector<FastqRecord> reads;
    for (const auto &r : sim)
        reads.push_back({r.name, r.seq, r.qual});

    PipelineOptions hw;
    hw.k = 11;
    hw.band = 16;
    hw.segments = 4;
    PipelineOptions sw = hw;
    sw.engine = PipelineOptions::Engine::Software;

    std::ostringstream hw_sam, sw_sam;
    const auto hw_res = alignToSam(ref, reads, hw_sam, hw);
    const auto sw_res = alignToSam(ref, reads, sw_sam, sw);
    ASSERT_TRUE(hw_res.ok());
    ASSERT_TRUE(sw_res.ok());
    EXPECT_EQ(hw_res->mapped, sw_res->mapped);
    EXPECT_GT(hw_res->mapped, reads.size() * 9 / 10);
    // With no faults armed, nothing degrades on either engine.
    EXPECT_EQ(hw_res->degraded, 0u);
    EXPECT_EQ(sw_res->degraded, 0u);
    // GenAx engine populates the hardware perf model.
    EXPECT_GT(hw_res->perf.totalSeconds, 0.0);
}

TEST(Pipeline, FileRoundTrip)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "genax_pipeline_test";
    fs::create_directories(dir);
    const std::string ref_path = (dir / "ref.fa").string();
    const std::string reads_path = (dir / "reads.fq").string();
    const std::string sam_path = (dir / "out.sam").string();

    const auto ref = twoContigReference(30000, 20000, 123);
    {
        std::ofstream out(ref_path);
        ASSERT_TRUE(writeFasta(out, ref).ok());
    }
    ContigMap map(ref);
    ReadSimConfig rs;
    rs.numReads = 30;
    rs.seed = 8;
    const auto sim = simulateReads(map.sequence(), rs);
    {
        std::vector<FastqRecord> reads;
        for (const auto &r : sim)
            reads.push_back({r.name, r.seq, r.qual});
        std::ofstream out(reads_path);
        ASSERT_TRUE(writeFastq(out, reads).ok());
    }

    PipelineOptions opts;
    opts.k = 11;
    opts.band = 16;
    opts.segments = 4;
    const auto status_or_res =
        alignFiles(ref_path, reads_path, sam_path, opts);
    ASSERT_TRUE(status_or_res.ok());
    const PipelineResult &res = *status_or_res;
    EXPECT_EQ(res.reads, 30u);
    EXPECT_GT(res.mapped, 26u);
    EXPECT_TRUE(res.ledgerBalanced());
    EXPECT_EQ(res.skippedMalformed, 0u);

    // The SAM file exists, has the header and one line per read.
    std::ifstream in(sam_path);
    ASSERT_TRUE(in.good());
    std::string line;
    u64 headers = 0, records = 0;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] == '@')
            ++headers;
        else if (!line.empty())
            ++records;
    }
    EXPECT_EQ(headers, 2u + 2u); // @HD, 2x @SQ, @PG
    EXPECT_EQ(records, 30u);

    fs::remove_all(dir);
}

/** PairedEndSamFlagsAndTlen's workload: 25 FR pairs over two
 *  contigs of 80 and 40 kbp. */
struct PairedWorkload
{
    std::vector<FastaRecord> ref;
    std::vector<FastqRecord> r1, r2;
};

PairedWorkload
pairedWorkload()
{
    PairedWorkload w;
    w.ref = twoContigReference(80000, 40000, 777);
    const ContigMap map(w.ref);
    ReadSimConfig rs;
    rs.numReads = 25;
    rs.seed = 9;
    for (const auto &p : simulatePairs(map.sequence(), rs)) {
        w.r1.push_back({p.r1.name, p.r1.seq, p.r1.qual});
        w.r2.push_back({p.r2.name, p.r2.seq, p.r2.qual});
    }
    return w;
}

/** FNV-1a 64 over the SAM text, then over the eight little-endian
 *  bytes of each ledger count. */
u64
samLedgerHash(const std::string &sam, const PipelineResult &res)
{
    u64 h = 0xcbf29ce484222325ull;
    const auto mix = [&h](u8 byte) {
        h ^= byte;
        h *= 0x100000001b3ull;
    };
    for (const char c : sam)
        mix(static_cast<u8>(c));
    for (const u64 v : {res.mapped, res.unmapped, res.skippedMalformed,
                        res.degraded, res.failed}) {
        for (int b = 0; b < 8; ++b)
            mix(static_cast<u8>(v >> (8 * b)));
    }
    return h;
}

/** A paired run's files in one directory. */
struct PairedPaths
{
    std::string ref, r1, r2, sam;
};

/** Write `ref` and the mate lists into `dir` (created if missing). */
PairedPaths
writePairedFiles(const std::filesystem::path &dir,
                 const std::vector<FastaRecord> &ref,
                 const std::vector<FastqRecord> &r1,
                 const std::vector<FastqRecord> &r2)
{
    std::filesystem::create_directories(dir);
    const PairedPaths paths{(dir / "ref.fa").string(),
                            (dir / "r1.fq").string(),
                            (dir / "r2.fq").string(),
                            (dir / "out.sam").string()};
    std::ofstream ref_out(paths.ref), r1_out(paths.r1), r2_out(paths.r2);
    EXPECT_TRUE(writeFasta(ref_out, ref).ok());
    EXPECT_TRUE(writeFastq(r1_out, r1).ok());
    EXPECT_TRUE(writeFastq(r2_out, r2).ok());
    return paths;
}

/** The whole text of a file; empty when there is none. */
std::string
fileText(const std::string &path)
{
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Paired SAM flags, mate fields and template lengths on `engine`. */
void
expectPairedSamFlagsAndTlen(PipelineOptions::Engine engine)
{
    const PairedWorkload w = pairedWorkload();

    PipelineOptions opts;
    opts.engine = engine;
    opts.k = 11;
    opts.band = 16;
    std::ostringstream sam;
    const auto status_or_res =
        alignPairsToSam(w.ref, w.r1, w.r2, sam, opts);
    ASSERT_TRUE(status_or_res.ok());
    const PipelineResult &res = *status_or_res;
    EXPECT_EQ(res.reads, 50u);
    EXPECT_GE(res.mapped, 48u);
    EXPECT_TRUE(res.ledgerBalanced());

    std::istringstream in(sam.str());
    std::string line;
    u64 records = 0, proper = 0;
    i64 tlen_sum = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '@')
            continue;
        ++records;
        std::istringstream fields(line);
        std::string f[11];
        for (auto &s : f)
            fields >> s;
        const u16 flag = static_cast<u16>(std::stoi(f[1]));
        EXPECT_TRUE(flag & kSamPaired);
        EXPECT_TRUE((flag & kSamRead1) || (flag & kSamRead2));
        if (flag & kSamProperPair) {
            ++proper;
            const i64 tlen = std::stoll(f[8]);
            EXPECT_NE(tlen, 0);
            if (tlen > 0)
                tlen_sum += tlen;
            // Proper mates share a contig: RNEXT is "=".
            EXPECT_EQ(f[6], "=");
        }
    }
    EXPECT_EQ(records, 50u);
    EXPECT_GT(proper, 40u);
    // Mean positive template length tracks the simulated insert.
    EXPECT_NEAR(static_cast<double>(tlen_sum) /
                    static_cast<double>(proper / 2),
                300.0, 60.0);
}

TEST(Pipeline, PairedEndSamFlagsAndTlen)
{
    expectPairedSamFlagsAndTlen(PipelineOptions::Engine::Software);
}

TEST(Pipeline, PairedEndSamFlagsAndTlenOnGenAx)
{
    expectPairedSamFlagsAndTlen(PipelineOptions::Engine::GenAx);
}

TEST(Pipeline, PairedSoftwareSamMatchesTheRecordedGolden)
{
    // FNV-1a of the software engine's paired SAM and ledger, recorded
    // at d903c51 (paired input on its own load-all driver): clean, and
    // with the third template lost to genax.pipeline.read. The same
    // bytes must come out at any thread count and batch size.
    constexpr u64 kClean = 0x82597fec100ad93full;
    constexpr u64 kThirdTemplateLost = 0x5be431e8a614e271ull;
    const PairedWorkload w = pairedWorkload();
    const auto dir = std::filesystem::temp_directory_path() /
                     "genax_pipeline_paired_golden";
    const PairedPaths files = writePairedFiles(dir, w.ref, w.r1, w.r2);

    PipelineOptions opts;
    opts.engine = PipelineOptions::Engine::Software;
    opts.k = 11;
    opts.band = 16;
    FaultInjector &fi = FaultInjector::instance();
    for (const bool inject : {false, true}) {
        const u64 want = inject ? kThirdTemplateLost : kClean;
        const auto arm = [&] {
            fi.reset();
            if (inject)
                fi.arm(fault::kPipelineRead, {.fireOnNth = 3});
        };
        for (const unsigned threads : {1u, 2u, 0u}) {
            opts.threads = threads;
            opts.batchReads = 0;
            arm();
            std::ostringstream sam;
            const auto res =
                alignPairsToSam(w.ref, w.r1, w.r2, sam, opts);
            fi.reset();
            ASSERT_TRUE(res.ok()) << res.status().str();
            EXPECT_EQ(res->failed, inject ? 2u : 0u);
            EXPECT_EQ(samLedgerHash(sam.str(), *res), want)
                << std::hex << samLedgerHash(sam.str(), *res) << std::dec
                << " inject " << inject << " threads " << threads;
        }
        for (const u64 batch : {u64{0}, u64{1}, u64{7}, u64{64}}) {
            for (const unsigned threads : {1u, 2u}) {
                opts.threads = threads;
                opts.batchReads = batch;
                arm();
                const auto res = alignPairFiles(files.ref, files.r1,
                                                files.r2, files.sam, opts);
                fi.reset();
                ASSERT_TRUE(res.ok()) << res.status().str();
                const std::string sam = fileText(files.sam);
                EXPECT_EQ(samLedgerHash(sam, *res), want)
                    << std::hex << samLedgerHash(sam, *res) << std::dec
                    << " inject " << inject << " batch " << batch
                    << " threads " << threads;
            }
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(Pipeline, EmptyReferenceIsInvalidInput)
{
    std::ostringstream sam;
    const auto res = alignToSam({}, {}, sam, PipelineOptions{});
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::InvalidInput);
}

TEST(Pipeline, MateCountMismatchIsInvalidInput)
{
    const auto ref = twoContigReference(20000, 10000, 13);
    std::vector<FastqRecord> r1{{"a", encode("ACGTACGTACGT"), {}}};
    std::ostringstream sam;
    const auto res =
        alignPairsToSam(ref, r1, {}, sam, PipelineOptions{});
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::InvalidInput);
    EXPECT_EQ(sam.str(), "");
}

TEST(Pipeline, MateFilesThatDivergeAreInvalidInputAtThatBatch)
{
    // One batch reads both files whole, so the mismatch comes before
    // the output file exists. At batch 7, 10 reads against 12 mates
    // agree for the first batch and diverge in the second.
    const auto dir = std::filesystem::temp_directory_path() /
                     "genax_pipeline_mate_mismatch";
    const PairedWorkload w = pairedWorkload();
    const PairedPaths files =
        writePairedFiles(dir, w.ref, {w.r1.begin(), w.r1.begin() + 10},
                         {w.r2.begin(), w.r2.begin() + 12});
    PipelineOptions opts;
    opts.k = 11;
    opts.band = 16;
    for (const unsigned threads : {1u, 2u}) {
        opts.threads = threads;
        opts.batchReads = 0;
        auto res = alignPairFiles(files.ref, files.r1, files.r2,
                                  files.sam, opts);
        ASSERT_FALSE(res.ok());
        EXPECT_EQ(res.status().code(), StatusCode::InvalidInput);
        EXPECT_NE(res.status().str().find("10 vs 12"), std::string::npos)
            << res.status().str();
        EXPECT_FALSE(std::filesystem::exists(files.sam));

        opts.batchReads = 7;
        res = alignPairFiles(files.ref, files.r1, files.r2, files.sam,
                             opts);
        ASSERT_FALSE(res.ok());
        EXPECT_EQ(res.status().code(), StatusCode::InvalidInput);
        EXPECT_NE(res.status().str().find("10 vs 12"), std::string::npos)
            << res.status().str();
        // The first batch's seven templates were emitted.
        std::ifstream in(files.sam);
        u64 records = 0;
        for (std::string line; std::getline(in, line);)
            records += !line.empty() && line[0] != '@';
        EXPECT_EQ(records, 14u) << "threads " << threads;
        std::filesystem::remove(files.sam);
    }
    std::filesystem::remove_all(dir);
}

TEST(Pipeline, MalformedReadsAreSkippedAndLedgered)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "genax_pipeline_malformed";
    fs::create_directories(dir);
    const std::string ref_path = (dir / "ref.fa").string();
    const std::string reads_path = (dir / "reads.fq").string();
    const std::string sam_path = (dir / "out.sam").string();

    const auto ref = twoContigReference(30000, 20000, 42);
    {
        std::ofstream out(ref_path);
        ASSERT_TRUE(writeFasta(out, ref).ok());
    }
    ContigMap map(ref);
    ReadSimConfig rs;
    rs.numReads = 10;
    rs.seed = 31;
    const auto sim = simulateReads(map.sequence(), rs);
    {
        std::vector<FastqRecord> reads;
        for (const auto &r : sim)
            reads.push_back({r.name, r.seq, r.qual});
        std::ofstream out(reads_path);
        ASSERT_TRUE(writeFastq(out, reads).ok());
        // Append two malformed records: a quality-length mismatch and
        // a record truncated at EOF.
        out << "@mismatch\nACGTACGT\n+\nIII\n";
        out << "@truncated\nACGT\n";
    }

    PipelineOptions opts;
    opts.k = 11;
    opts.band = 16;
    opts.segments = 4;
    const auto res = alignFiles(ref_path, reads_path, sam_path, opts);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res->reads, 12u);
    EXPECT_EQ(res->skippedMalformed, 2u);
    EXPECT_TRUE(res->ledgerBalanced());
    EXPECT_EQ(res->readInput.errors.size(), 2u);

    fs::remove_all(dir);
}

TEST(Pipeline, ReverseReadsQualityIsReversed)
{
    const auto ref = twoContigReference(30000, 10000, 321);
    ContigMap map(ref);
    // One reverse-strand error-free read with a ramp quality string.
    const Seq frag(map.sequence().begin() + 5000,
                   map.sequence().begin() + 5101);
    FastqRecord rec;
    rec.name = "rev1";
    rec.seq = reverseComplement(frag);
    for (int i = 0; i < 101; ++i)
        rec.qual.push_back(static_cast<u8>(i % 40));

    PipelineOptions opts;
    opts.k = 11;
    opts.band = 16;
    opts.segments = 2;
    std::ostringstream sam;
    ASSERT_TRUE(alignToSam(ref, {rec}, sam, opts).ok());

    std::istringstream in(sam.str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '@')
            continue;
        std::istringstream fields(line);
        std::string f[11];
        for (auto &s : f)
            fields >> s;
        EXPECT_EQ(f[1], "16"); // reverse flag
        // Sequence is stored reverse-complemented (reference
        // orientation), quality reversed accordingly.
        EXPECT_EQ(f[9], decode(frag));
        EXPECT_EQ(f[10].front(), static_cast<char>((100 % 40) + 33));
    }
}

// ------------------------------------------------------------------
// Front-end policy: the engine's set-up decisions — degrade to
// software, snapshot attach — reach every way into it alike.

/** The three ways into the alignment engine. */
enum class FrontEnd
{
    AlignToSam, //!< in-memory reads, one batch
    Stream,     //!< alignStreamToSam at batch 7 x threads 2
    Service,    //!< the serving daemon's AlignService
    Pairs,      //!< alignPairsToSam: in-memory mates, one batch
    PairedFiles, //!< alignPairFiles at batch 7 x threads 2
};

/** Names the ctest entry of each parametrized instance. */
void
PrintTo(FrontEnd fe, std::ostream *os)
{
    *os << (fe == FrontEnd::AlignToSam  ? "AlignToSam"
            : fe == FrontEnd::Stream    ? "StreamBatch7Threads2"
            : fe == FrontEnd::Service   ? "Service"
            : fe == FrontEnd::Pairs     ? "PairsToSam"
                                        : "PairedFilesBatch7Threads2");
}

/** The one-batch front end whose SAM `fe`'s must equal. */
FrontEnd
oneBatchFrontEnd(FrontEnd fe)
{
    return fe == FrontEnd::Pairs || fe == FrontEnd::PairedFiles
               ? FrontEnd::Pairs
               : FrontEnd::AlignToSam;
}

/** A front end's outcome in common terms. */
struct FrontEndRun
{
    Status status = okStatus();
    std::string sam;
    bool softwareFallback = false;
    std::string indexNote;
    u64 reads = 0;
    u64 mapped = 0;
    u64 degraded = 0;
    bool ledgerBalanced = false;
};

struct PolicyWorkload
{
    std::vector<FastaRecord> ref;
    std::vector<FastqRecord> reads;
    std::vector<FastqRecord> r1, r2; //!< mates, for the paired front ends
};

/** A scratch directory of this test's own: ctest runs each
 *  parametrized instance as its own process, concurrently. */
std::filesystem::path
testScratchDir()
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "." +
                       info->name();
    std::replace(name.begin(), name.end(), '/', '_');
    const auto dir =
        std::filesystem::temp_directory_path() / ("genax_" + name);
    std::filesystem::create_directories(dir);
    return dir;
}

/** The paired front ends, SAM to `sam`: alignPairsToSam, or
 *  alignPairFiles over files in `dir`. */
StatusOr<PipelineResult>
runPairedFrontEnd(FrontEnd fe, const PolicyWorkload &w,
                  const PipelineOptions &opts,
                  const std::filesystem::path &dir, std::ostream &sam)
{
    if (fe == FrontEnd::Pairs)
        return alignPairsToSam(w.ref, w.r1, w.r2, sam, opts);
    const PairedPaths files = writePairedFiles(dir, w.ref, w.r1, w.r2);
    PipelineOptions stream = opts;
    stream.batchReads = 7;
    stream.threads = 2;
    auto res = alignPairFiles(files.ref, files.r1, files.r2, files.sam,
                              stream);
    sam << fileText(files.sam);
    std::filesystem::remove_all(dir);
    return res;
}

FrontEndRun
runFrontEnd(FrontEnd fe, const PolicyWorkload &w, PipelineOptions opts)
{
    const std::vector<FastaRecord> &ref = w.ref;
    const std::vector<FastqRecord> &reads = w.reads;
    FrontEndRun run;
    if (fe == FrontEnd::Service) {
        auto svc = AlignService::create(ref, opts);
        if (!svc.ok()) {
            run.status = svc.status();
            return run;
        }
        const BatchOutcome out = (*svc)->alignBatch(reads);
        run.sam = (*svc)->headerText();
        for (const auto &line : out.samLines)
            run.sam += line;
        for (const u8 o : out.outcomes) {
            run.mapped += o == BatchOutcome::kMapped;
            run.degraded += o == BatchOutcome::kDegraded;
        }
        run.reads = reads.size();
        run.ledgerBalanced =
            out.mapped + out.unmapped + out.degraded == reads.size();
        run.softwareFallback = (*svc)->softwareFallback();
        run.indexNote = (*svc)->indexAttachment().note;
        (*svc)->finish();
        return run;
    }
    std::ostringstream sam;
    std::ostringstream fastq;
    EXPECT_TRUE(writeFastq(fastq, reads).ok());
    std::istringstream in(fastq.str());
    FastqReader reader(in);
    if (fe == FrontEnd::Stream) {
        opts.batchReads = 7;
        opts.threads = 2;
    }
    const auto res =
        fe == FrontEnd::Pairs || fe == FrontEnd::PairedFiles
            ? runPairedFrontEnd(fe, w, opts, testScratchDir() / "paired",
                                sam)
        : fe == FrontEnd::Stream ? alignStreamToSam(ref, reader, sam, opts)
                                 : alignToSam(ref, reads, sam, opts);
    run.sam = sam.str();
    if (!res.ok()) {
        run.status = res.status();
        return run;
    }
    run.softwareFallback = res->softwareFallback;
    run.indexNote = res->indexNote;
    run.reads = res->reads;
    run.mapped = res->mapped;
    run.degraded = res->degraded;
    run.ledgerBalanced = res->ledgerBalanced();
    return run;
}

PolicyWorkload
policyWorkload()
{
    PolicyWorkload w;
    w.ref = twoContigReference(30000, 20000, 55);
    ContigMap map(w.ref);
    ReadSimConfig rs;
    rs.numReads = 12;
    rs.seed = 21;
    for (const auto &r : simulateReads(map.sequence(), rs))
        w.reads.push_back({r.name, r.seq, r.qual});
    rs.numReads = 6;
    rs.seed = 22;
    for (const auto &p : simulatePairs(map.sequence(), rs)) {
        w.r1.push_back({p.r1.name, p.r1.seq, p.r1.qual});
        w.r2.push_back({p.r2.name, p.r2.seq, p.r2.qual});
    }
    return w;
}

/** Engine settings matching buildSnapshot()'s layout. */
PipelineOptions
policyOptions()
{
    PipelineOptions opts;
    opts.k = 11;
    opts.segments = 4;
    opts.segmentOverlap = 256;
    return opts;
}

/** Build a flat index snapshot of `ref` with policyOptions()'s
 *  layout. */
void
buildSnapshot(const std::string &path,
              const std::vector<FastaRecord> &ref)
{
    const ContigMap map(ref);
    std::vector<SnapshotContig> contigs;
    contigs.reserve(map.contigs().size());
    for (const auto &c : map.contigs())
        contigs.push_back({c.name, c.start, c.length});
    SegmentConfig cfg;
    cfg.k = 11;
    cfg.segmentCount = 4;
    cfg.overlap = 256;
    ASSERT_TRUE(
        IndexSnapshot::build(path, map.sequence(), contigs, cfg).ok());
}

class FrontEndPolicy : public ::testing::TestWithParam<FrontEnd>
{
};

TEST_P(FrontEndPolicy, OversizedBandDegradesToSoftwareEngine)
{
    const PolicyWorkload w = policyWorkload();
    PipelineOptions opts = policyOptions();
    opts.band = kMaxSillaK + 1; // beyond what a SillaX lane supports
    const FrontEndRun run = runFrontEnd(GetParam(), w, opts);
    ASSERT_TRUE(run.status.ok()) << run.status.str();
    EXPECT_TRUE(run.softwareFallback);
    EXPECT_TRUE(run.ledgerBalanced);
    // Every mapped read is accounted as degraded, not mapped.
    EXPECT_EQ(run.mapped, 0u);
    EXPECT_GT(run.degraded, run.reads * 9 / 10);

    // The software engine's SAM, so the same SAM on every front end.
    PipelineOptions sw = opts;
    sw.engine = PipelineOptions::Engine::Software;
    EXPECT_EQ(run.sam,
              runFrontEnd(oneBatchFrontEnd(GetParam()), w, sw).sam);
}

TEST_P(FrontEndPolicy, SnapshotOfAnotherReferenceIsFailedPrecondition)
{
    const PolicyWorkload w = policyWorkload();
    const auto dir = testScratchDir();
    const std::string snap = (dir / "other.gxs").string();
    buildSnapshot(snap, twoContigReference(30000, 20000, 56));

    PipelineOptions opts = policyOptions();
    opts.indexSnapshot = snap;
    const FrontEndRun run = runFrontEnd(GetParam(), w, opts);
    EXPECT_EQ(run.status.code(), StatusCode::FailedPrecondition)
        << run.status.str();
    EXPECT_EQ(run.sam, "");
    std::filesystem::remove_all(dir);
}

TEST_P(FrontEndPolicy, CorruptSnapshotRebuildsWithIdenticalSam)
{
    const PolicyWorkload w = policyWorkload();
    const auto dir = testScratchDir();
    const std::string snap = (dir / "corrupt.gxs").string();
    buildSnapshot(snap, w.ref);
    {
        // Flip a bit in the middle of the file, past the header.
        std::fstream f(snap, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekg(0, std::ios::end);
        const auto mid = f.tellg() / 2;
        f.seekg(mid);
        const char c = static_cast<char>(f.get() ^ 0x20);
        f.seekp(mid);
        f.put(c);
    }

    PipelineOptions opts = policyOptions();
    opts.indexSnapshot = snap;
    const FrontEndRun run = runFrontEnd(GetParam(), w, opts);
    ASSERT_TRUE(run.status.ok()) << run.status.str();
    EXPECT_NE(run.indexNote.find("rebuilding from FASTA"),
              std::string::npos)
        << run.indexNote;
    EXPECT_EQ(run.sam, runFrontEnd(oneBatchFrontEnd(GetParam()), w,
                                   policyOptions())
                           .sam);
    std::filesystem::remove_all(dir);
}

TEST_P(FrontEndPolicy, VersionOneSnapshotRebuildsWithIdenticalSam)
{
    // A GXSNAP file from before the presence filters: the same tables
    // and postings, no ".flt" sections, kind version 1. It must take
    // the rebuild path, never be read as the current version.
    const PolicyWorkload w = policyWorkload();
    const auto dir = testScratchDir();
    const std::string current = (dir / "current.gxs").string();
    const std::string snap = (dir / "v1.gxs").string();
    buildSnapshot(current, w.ref);
    ASSERT_TRUE(testing::rewriteStore(
                    current, snap, 1,
                    [](const std::string &name, std::string &) {
                        return !name.ends_with(".flt");
                    })
                    .ok());

    PipelineOptions opts = policyOptions();
    opts.indexSnapshot = snap;
    const FrontEndRun run = runFrontEnd(GetParam(), w, opts);
    ASSERT_TRUE(run.status.ok()) << run.status.str();
    EXPECT_NE(run.indexNote.find("rebuilding from FASTA"),
              std::string::npos)
        << run.indexNote;
    EXPECT_NE(run.indexNote.find("format version 1"), std::string::npos)
        << run.indexNote;
    EXPECT_EQ(run.sam, runFrontEnd(oneBatchFrontEnd(GetParam()), w,
                                   policyOptions())
                           .sam);
    std::filesystem::remove_all(dir);
}

TEST_P(FrontEndPolicy, BandBeyondTheMaximumIsInvalidInput)
{
    // Banded traceback memory grows with the band, so every front end
    // refuses a band past kMaxBand on either engine, before any SAM.
    const PolicyWorkload w = policyWorkload();
    for (const auto engine : {PipelineOptions::Engine::GenAx,
                              PipelineOptions::Engine::Software}) {
        PipelineOptions opts = policyOptions();
        opts.engine = engine;
        opts.band = kMaxBand + 1;
        const FrontEndRun run = runFrontEnd(GetParam(), w, opts);
        EXPECT_EQ(run.status.code(), StatusCode::InvalidInput)
            << run.status.str();
        EXPECT_EQ(run.sam, "");
    }
}

/** policyOptions() on the software engine. */
PipelineOptions
softwareOptions()
{
    PipelineOptions opts = policyOptions();
    opts.engine = PipelineOptions::Engine::Software;
    return opts;
}

TEST_P(FrontEndPolicy, SoftwareEngineRefusesASnapshotOfAnotherReference)
{
    const PolicyWorkload w = policyWorkload();
    const auto dir = testScratchDir();
    const std::string snap = (dir / "other.gxs").string();
    buildSnapshot(snap, twoContigReference(30000, 20000, 56));

    PipelineOptions opts = softwareOptions();
    opts.indexSnapshot = snap;
    const FrontEndRun run = runFrontEnd(GetParam(), w, opts);
    EXPECT_EQ(run.status.code(), StatusCode::FailedPrecondition)
        << run.status.str();
    EXPECT_EQ(run.sam, "");
    std::filesystem::remove_all(dir);
}

TEST_P(FrontEndPolicy, SoftwareEngineRebuildsPastACorruptOrVersionTwoSnapshot)
{
    // The software engine takes its index from an attached snapshot,
    // so it follows the attach policy too: a corrupt file or one of
    // the per-segment version 2 is rebuilt past, with the SAM of a
    // run without a snapshot.
    const PolicyWorkload w = policyWorkload();
    const auto dir = testScratchDir();
    const std::string current = (dir / "current.gxs").string();
    buildSnapshot(current, w.ref);
    const std::string corrupt = (dir / "corrupt.gxs").string();
    std::filesystem::copy_file(current, corrupt);
    {
        std::fstream f(corrupt, std::ios::in | std::ios::out |
                                    std::ios::binary);
        f.seekg(0, std::ios::end);
        const auto mid = f.tellg() / 2;
        f.seekg(mid);
        const char c = static_cast<char>(f.get() ^ 0x20);
        f.seekp(mid);
        f.put(c);
    }
    const std::string v2 = (dir / "v2.gxs").string();
    ASSERT_TRUE(testing::rewriteStore(current, v2, 2).ok());

    const std::string want =
        runFrontEnd(oneBatchFrontEnd(GetParam()), w, softwareOptions()).sam;
    for (const auto &[file, why] :
         {std::pair{corrupt, "checksum"}, std::pair{v2, "format version 2"}}) {
        PipelineOptions opts = softwareOptions();
        opts.indexSnapshot = file;
        const FrontEndRun run = runFrontEnd(GetParam(), w, opts);
        ASSERT_TRUE(run.status.ok()) << run.status.str();
        EXPECT_NE(run.indexNote.find("rebuilding from FASTA"),
                  std::string::npos)
            << run.indexNote;
        EXPECT_NE(run.indexNote.find(why), std::string::npos)
            << run.indexNote;
        EXPECT_EQ(run.sam, want) << file;
    }
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(FrontEnds, FrontEndPolicy,
                         ::testing::Values(FrontEnd::AlignToSam,
                                           FrontEnd::Stream,
                                           FrontEnd::Service,
                                           FrontEnd::Pairs,
                                           FrontEnd::PairedFiles));

TEST(Pipeline, ReaderFailureOnTheFirstBatchWritesNoSam)
{
    // One batch (batch 0) is the load-all contract: a reader failure
    // is the Status of parsing the whole file, FASTQ path included,
    // and comes before the output file is even created. The first
    // batch of a bounded stream fails the same way.
    const auto dir = testScratchDir();
    const std::string ref_path = (dir / "ref.fa").string();
    const std::string reads_path = (dir / "reads.fq").string();
    const std::string sam_path = (dir / "out.sam").string();
    const PolicyWorkload w = policyWorkload();
    {
        std::ofstream out(ref_path);
        ASSERT_TRUE(writeFasta(out, w.ref).ok());
    }
    {
        std::ofstream out(reads_path);
        ASSERT_TRUE(writeFastq(out, {w.reads[0], w.reads[1]}).ok());
        // Two quality-length mismatches exhaust a budget of one.
        out << "@bad1\nACGTACGT\n+\nIII\n";
        out << "@bad2\nACGTACGT\n+\nIII\n";
        ASSERT_TRUE(writeFastq(out, {w.reads[2]}).ok());
    }
    ReaderOptions ropts;
    ropts.maxMalformed = 1;
    const auto load_all = readFastqFile(reads_path, ropts);
    ASSERT_FALSE(load_all.ok());

    for (const u64 batch : {u64{0}, u64{7}}) {
        for (const unsigned threads : {1u, 2u}) {
            PipelineOptions opts = policyOptions();
            opts.maxMalformed = 1;
            opts.batchReads = batch;
            opts.threads = threads;
            const auto res =
                alignFiles(ref_path, reads_path, sam_path, opts);
            ASSERT_FALSE(res.ok());
            EXPECT_EQ(res.status().code(), load_all.status().code());
            EXPECT_EQ(res.status().str(), load_all.status().str());
            EXPECT_FALSE(std::filesystem::exists(sam_path))
                << "batch " << batch << " threads " << threads;
        }
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace genax
