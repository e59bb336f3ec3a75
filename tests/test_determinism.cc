/**
 * @file
 * End-to-end determinism tests for the sharded batch engine: the SAM
 * byte stream, the PipelineResult outcome ledger, and the modelled
 * GenAxPerf numbers must be identical at every host thread count AND
 * at every kernel dispatch tier — with and without an armed
 * fault-injection plan. This is the user-visible contract behind
 * `genax_align --threads N` and `genax_align --kernel TIER`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "align/simd/dispatch.hh"
#include "common/faultinject.hh"
#include "genax/pipeline.hh"
#include "readsim/readsim.hh"
#include "readsim/refgen.hh"
#include "seed/index_snapshot.hh"
#include "serve/batcher.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/service.hh"

namespace genax {
namespace {

struct Workload
{
    std::vector<FastaRecord> ref;
    std::vector<FastqRecord> reads;
};

Workload
makeWorkload()
{
    RefGenConfig rcfg;
    rcfg.length = 30000;
    rcfg.seed = 1234;
    const Seq ref = generateReference(rcfg);

    ReadSimConfig rs;
    rs.numReads = 150;
    rs.seed = 5678;
    const auto sim = simulateReads(ref, rs);

    Workload w;
    w.ref.resize(1);
    w.ref[0].name = "det_ref";
    w.ref[0].seq = ref;
    w.reads.resize(sim.size());
    for (size_t i = 0; i < sim.size(); ++i) {
        w.reads[i].name = "r" + std::to_string(i);
        w.reads[i].seq = sim[i].seq;
        w.reads[i].qual = sim[i].qual;
    }
    return w;
}

struct RunOutput
{
    std::string sam;
    PipelineResult res;
};

/** Reset the injector and, when `inject`, arm the suite's fault plan:
 *  lane refusals, CAM overflow forcing, pipeline read loss and DRAM
 *  stream degradation. */
void
armFaultPlan(bool inject)
{
    FaultInjector &fi = FaultInjector::instance();
    fi.reset();
    if (inject) {
        fi.arm(fault::kLaneIssue, {.probability = 0.2, .seed = 21});
        fi.arm(fault::kCamOverflow, {.probability = 0.1, .seed = 22});
        fi.arm(fault::kPipelineRead, {.probability = 0.05, .seed = 23});
        fi.arm(fault::kDramStream, {.probability = 0.3, .seed = 24});
    }
}

/**
 * One pipeline run; the fault plan (if any) is re-armed fresh so
 * every run sees identical injector state. batch_reads > 0 routes
 * through the streaming path (alignStreamToSam) instead of the
 * load-all path — the two must be indistinguishable from out here.
 */
RunOutput
runOnce(const Workload &w, PipelineOptions::Engine engine,
        unsigned threads, bool inject, u64 batch_reads = 0)
{
    PipelineOptions opts;
    opts.engine = engine;
    opts.segments = 6;
    opts.threads = threads;
    opts.batchReads = batch_reads;

    FaultInjector &fi = FaultInjector::instance();
    armFaultPlan(inject);

    std::ostringstream sink;
    const auto res = [&]() -> StatusOr<PipelineResult> {
        if (batch_reads > 0) {
            std::ostringstream fastq;
            GENAX_TRY(writeFastq(fastq, w.reads));
            std::istringstream in(fastq.str());
            FastqReader reader(in);
            return alignStreamToSam(w.ref, reader, sink, opts);
        }
        return alignToSam(w.ref, w.reads, sink, opts);
    }();
    fi.reset();
    EXPECT_TRUE(res.ok()) << res.status().str();
    RunOutput out;
    out.sam = sink.str();
    out.res = res.ok() ? *res : PipelineResult{};
    return out;
}

void
expectSameOutcome(const RunOutput &a, const RunOutput &b,
                  const std::string &what)
{
    // Byte-identical SAM, not merely equivalent records.
    EXPECT_EQ(a.sam, b.sam) << what;

    // Identical outcome ledger.
    EXPECT_EQ(a.res.reads, b.res.reads) << what;
    EXPECT_EQ(a.res.mapped, b.res.mapped) << what;
    EXPECT_EQ(a.res.unmapped, b.res.unmapped) << what;
    EXPECT_EQ(a.res.degraded, b.res.degraded) << what;
    EXPECT_EQ(a.res.failed, b.res.failed) << what;
    EXPECT_EQ(a.res.skippedMalformed, b.res.skippedMalformed) << what;
    EXPECT_TRUE(a.res.ledgerBalanced()) << what;

    // Bit-identical modelled performance: counters are u64 sums
    // reduced in slot order, and every derived double is computed
    // from those sums, so even floating-point results must match
    // exactly.
    const GenAxPerf &pa = a.res.perf;
    const GenAxPerf &pb = b.res.perf;
    EXPECT_EQ(pa.reads, pb.reads) << what;
    EXPECT_EQ(pa.segments, pb.segments) << what;
    EXPECT_EQ(pa.extensionJobs, pb.extensionJobs) << what;
    EXPECT_EQ(pa.exactReads, pb.exactReads) << what;
    EXPECT_EQ(pa.degradedJobs, pb.degradedJobs) << what;
    EXPECT_EQ(pa.laneFaults, pb.laneFaults) << what;
    EXPECT_EQ(pa.dramFaults, pb.dramFaults) << what;
    EXPECT_EQ(pa.seedingSeconds, pb.seedingSeconds) << what;
    EXPECT_EQ(pa.extensionSeconds, pb.extensionSeconds) << what;
    EXPECT_EQ(pa.dramSeconds, pb.dramSeconds) << what;
    EXPECT_EQ(pa.totalSeconds, pb.totalSeconds) << what;
    EXPECT_EQ(pa.seeding.reads, pb.seeding.reads) << what;
    EXPECT_EQ(pa.seeding.exactMatchReads, pb.seeding.exactMatchReads)
        << what;
    EXPECT_EQ(pa.seeding.indexLookups, pb.seeding.indexLookups) << what;
    EXPECT_EQ(pa.seeding.smems, pb.seeding.smems) << what;
    EXPECT_EQ(pa.seeding.hitsReported, pb.seeding.hitsReported) << what;
    EXPECT_EQ(pa.seeding.cam.loads, pb.seeding.cam.loads) << what;
    EXPECT_EQ(pa.seeding.cam.searches, pb.seeding.cam.searches) << what;
    EXPECT_EQ(pa.seeding.cam.binarySteps, pb.seeding.cam.binarySteps)
        << what;
    EXPECT_EQ(pa.seeding.cam.overflowFallbacks,
              pb.seeding.cam.overflowFallbacks)
        << what;
    EXPECT_EQ(pa.lanes.jobs, pb.lanes.jobs) << what;
    EXPECT_EQ(pa.lanes.streamCycles, pb.lanes.streamCycles) << what;
    EXPECT_EQ(pa.lanes.reduceCycles, pb.lanes.reduceCycles) << what;
    EXPECT_EQ(pa.lanes.collectCycles, pb.lanes.collectCycles) << what;
    EXPECT_EQ(pa.lanes.rerunCycles, pb.lanes.rerunCycles) << what;
    EXPECT_EQ(pa.lanes.jobsWithRerun, pb.lanes.jobsWithRerun) << what;
    EXPECT_EQ(pa.lanes.reruns, pb.lanes.reruns) << what;
    EXPECT_EQ(pa.lanes.issueFaults, pb.lanes.issueFaults) << what;
}

TEST(Determinism, GenAxIdenticalAtAnyThreadCount)
{
    const Workload w = makeWorkload();
    const RunOutput serial =
        runOnce(w, PipelineOptions::Engine::GenAx, 1, false);
    EXPECT_GT(serial.res.mapped, 0u);
    for (const unsigned threads : {2u, 8u, 0u}) {
        const RunOutput mt =
            runOnce(w, PipelineOptions::Engine::GenAx, threads, false);
        expectSameOutcome(serial, mt,
                          "threads=" + std::to_string(threads));
    }
}

TEST(Determinism, GenAxIdenticalUnderFaultInjection)
{
    // The stronger claim: an armed fault plan (lane refusals, CAM
    // overflow forcing, pipeline read loss, DRAM stream degradation)
    // fires on the same reads at every thread count, so even the
    // degraded/failed ledger and the SAM placeholders replay exactly.
    const Workload w = makeWorkload();
    const RunOutput serial =
        runOnce(w, PipelineOptions::Engine::GenAx, 1, true);
    EXPECT_GT(serial.res.degraded + serial.res.failed, 0u)
        << "fault plan should visibly perturb the run";
    for (const unsigned threads : {2u, 8u}) {
        const RunOutput mt =
            runOnce(w, PipelineOptions::Engine::GenAx, threads, true);
        expectSameOutcome(serial, mt,
                          "inject threads=" + std::to_string(threads));
    }
}

TEST(Determinism, SoftwareEngineIdenticalAtAnyThreadCount)
{
    const Workload w = makeWorkload();
    const RunOutput serial =
        runOnce(w, PipelineOptions::Engine::Software, 1, false);
    EXPECT_GT(serial.res.mapped, 0u);
    const RunOutput mt =
        runOnce(w, PipelineOptions::Engine::Software, 8, false);
    expectSameOutcome(serial, mt, "software threads=8");
}

TEST(Determinism, StreamingIdenticalAtAnyBatchSize)
{
    // The `--batch-reads` contract: batch size (and with it, the
    // parse/align/emit overlap) is a memory/latency choice only. The
    // streaming path must reproduce the load-all run byte for byte —
    // SAM stream, ledger, and the full modelled perf report — at any
    // batch size crossed with any thread count, on both engines.
    const Workload w = makeWorkload();
    for (const auto engine : {PipelineOptions::Engine::GenAx,
                              PipelineOptions::Engine::Software}) {
        const std::string ename =
            engine == PipelineOptions::Engine::GenAx ? "genax" : "sw";
        const RunOutput loadall = runOnce(w, engine, 1, false);
        EXPECT_GT(loadall.res.mapped, 0u);
        for (const u64 batch : {u64{7}, u64{64}, u64{100000}}) {
            for (const unsigned threads : {1u, 8u}) {
                const RunOutput run =
                    runOnce(w, engine, threads, false, batch);
                expectSameOutcome(loadall, run,
                                  ename + " batch=" +
                                      std::to_string(batch) +
                                      " threads=" +
                                      std::to_string(threads));
            }
        }
    }
}

TEST(Determinism, StreamingIdenticalUnderFaultInjection)
{
    // Armed faults must replay identically through the streaming
    // path: per-read keyed sites see the same global read index, the
    // admission and DRAM-stream sites see the same per-site ordinal
    // sequence, whatever the batch size.
    const Workload w = makeWorkload();
    const RunOutput loadall =
        runOnce(w, PipelineOptions::Engine::GenAx, 1, true);
    EXPECT_GT(loadall.res.degraded + loadall.res.failed, 0u)
        << "fault plan should visibly perturb the run";
    for (const u64 batch : {u64{7}, u64{64}, u64{100000}}) {
        for (const unsigned threads : {1u, 8u}) {
            const RunOutput run = runOnce(
                w, PipelineOptions::Engine::GenAx, threads, true, batch);
            expectSameOutcome(loadall, run,
                              "inject batch=" + std::to_string(batch) +
                                  " threads=" +
                                  std::to_string(threads));
        }
    }
}

TEST(Determinism, GenAxPairedIdenticalAtAnyThreadsBatchAndSnapshot)
{
    // Paired input through the one driver on the GenAx engine: a
    // template's mates take engine read indexes 2t and 2t + 1 of the
    // admitted templates, so SAM, ledger and the modelled report
    // (fault replay included) do not depend on the thread count, the
    // batch size or whether the segment indexes come from a snapshot.
    namespace fs = std::filesystem;
    const Workload w = makeWorkload();
    ReadSimConfig rs;
    rs.numReads = 60;
    rs.seed = 91;
    std::vector<FastqRecord> r1, r2;
    for (const auto &p : simulatePairs(w.ref[0].seq, rs)) {
        r1.push_back({p.r1.name, p.r1.seq, p.r1.qual});
        r2.push_back({p.r2.name, p.r2.seq, p.r2.qual});
    }
    const fs::path dir =
        fs::temp_directory_path() / "genax_determinism_paired";
    fs::create_directories(dir);
    const std::string ref_path = (dir / "ref.fa").string();
    const std::string r1_path = (dir / "r1.fq").string();
    const std::string r2_path = (dir / "r2.fq").string();
    const std::string snap_path = (dir / "ref.gxs").string();
    const std::string sam_path = (dir / "out.sam").string();
    {
        std::ofstream ref(ref_path), f1(r1_path), f2(r2_path);
        ASSERT_TRUE(writeFasta(ref, w.ref).ok());
        ASSERT_TRUE(writeFastq(f1, r1).ok());
        ASSERT_TRUE(writeFastq(f2, r2).ok());
    }
    SegmentConfig scfg;
    scfg.k = 12;
    scfg.segmentCount = 6;
    scfg.overlap = 256;
    ASSERT_TRUE(IndexSnapshot::build(snap_path, w.ref[0].seq,
                                     {{w.ref[0].name, 0,
                                       w.ref[0].seq.size()}},
                                     scfg)
                    .ok());

    for (const bool inject : {false, true}) {
        std::optional<RunOutput> first;
        for (const bool snapshot : {false, true}) {
            for (const unsigned threads : {1u, 3u}) {
                for (const u64 batch : {u64{0}, u64{7}, u64{64}}) {
                    PipelineOptions opts;
                    opts.segments = 6;
                    opts.threads = threads;
                    opts.batchReads = batch;
                    if (snapshot)
                        opts.indexSnapshot = snap_path;
                    armFaultPlan(inject);
                    const auto res = alignPairFiles(ref_path, r1_path,
                                                    r2_path, sam_path,
                                                    opts);
                    FaultInjector::instance().reset();
                    ASSERT_TRUE(res.ok()) << res.status().str();
                    EXPECT_EQ(res->indexFromSnapshot, snapshot);
                    std::ifstream in(sam_path);
                    RunOutput run{
                        std::string(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()),
                        *res};
                    if (!inject) {
                        EXPECT_EQ(run.res.perf.reads, 2 * r1.size());
                        EXPECT_EQ(run.res.reads, 2 * r1.size());
                    }
                    if (!first) {
                        EXPECT_GT(run.res.mapped, r1.size());
                        if (inject) {
                            EXPECT_GT(run.res.degraded + run.res.failed,
                                      0u);
                        }
                        first = std::move(run);
                        continue;
                    }
                    expectSameOutcome(
                        *first, run,
                        std::string(inject ? "inject " : "") +
                            (snapshot ? "snapshot " : "") +
                            "threads=" + std::to_string(threads) +
                            " batch=" + std::to_string(batch));
                }
            }
        }
    }
    fs::remove_all(dir);
}

/** Every kernel tier the host can run, scalar always included. */
std::vector<simd::KernelTier>
supportedTiers()
{
    std::vector<simd::KernelTier> tiers{simd::KernelTier::Scalar};
    for (const auto t :
         {simd::KernelTier::Sse41, simd::KernelTier::Avx2})
        if (simd::kernelTierSupported(t))
            tiers.push_back(t);
    return tiers;
}

TEST(Determinism, IdenticalAtEveryKernelTier)
{
    // The `--kernel` contract: dispatch tier is a speed choice only.
    // Both engines (the software path batch-scores extensions through
    // the SIMD kernels; the GenAx path routes lane-fault fallbacks
    // through them) must produce byte-identical SAM and ledgers at
    // every tier, serial and sharded alike.
    const Workload w = makeWorkload();
    for (const auto engine : {PipelineOptions::Engine::Software,
                              PipelineOptions::Engine::GenAx}) {
        simd::clearKernelTierOverride();
        ASSERT_EQ(simd::setKernelTier(simd::KernelTier::Scalar).ok(),
                  true);
        const RunOutput baseline = runOnce(w, engine, 1, false);
        EXPECT_GT(baseline.res.mapped, 0u);
        for (const auto tier : supportedTiers()) {
            ASSERT_TRUE(simd::setKernelTier(tier).ok());
            for (const unsigned threads : {1u, 8u}) {
                const RunOutput run = runOnce(w, engine, threads, false);
                expectSameOutcome(
                    baseline, run,
                    std::string("tier=") + kernelTierName(tier) +
                        " threads=" + std::to_string(threads) +
                        " engine=" +
                        (engine == PipelineOptions::Engine::GenAx
                             ? "genax"
                             : "software"));
            }
        }
        simd::clearKernelTierOverride();
    }
}

TEST(Determinism, FaultFallbackIdenticalAtEveryKernelTier)
{
    // Lane-fault degradation re-runs jobs on the software kernel via
    // the SIMD score pass; the degraded reads and their SAM records
    // must not depend on which tier scored them.
    const Workload w = makeWorkload();
    ASSERT_TRUE(simd::setKernelTier(simd::KernelTier::Scalar).ok());
    const RunOutput baseline =
        runOnce(w, PipelineOptions::Engine::GenAx, 1, true);
    EXPECT_GT(baseline.res.degraded + baseline.res.failed, 0u);
    for (const auto tier : supportedTiers()) {
        ASSERT_TRUE(simd::setKernelTier(tier).ok());
        const RunOutput run =
            runOnce(w, PipelineOptions::Engine::GenAx, 1, true);
        expectSameOutcome(baseline, run,
                          std::string("inject tier=") +
                              kernelTierName(tier));
    }
    simd::clearKernelTierOverride();
}

TEST(Determinism, ServedSamMatchesOfflineAtAnyBatchAndThreads)
{
    // The serving layer's byte-identity contract (see
    // src/serve/service.hh): a client that writes samHeader() plus
    // the lines from its align() calls reproduces, byte for byte,
    // what an offline genax_align run over exactly its reads would
    // have written — no matter how the daemon's continuous batcher
    // interleaved it with other tenants' reads, what the flush
    // threshold was, or how many engine threads served the batch.
    const Workload w = makeWorkload();

    constexpr size_t kClients = 4;
    std::vector<std::vector<FastqRecord>> slices(kClients);
    const size_t per = (w.reads.size() + kClients - 1) / kClients;
    for (size_t i = 0; i < w.reads.size(); ++i)
        slices[i / per].push_back(w.reads[i]);

    // Offline expectation: one single-client pipeline run per slice.
    std::vector<std::string> expected(kClients);
    for (size_t c = 0; c < kClients; ++c) {
        PipelineOptions opts;
        opts.segments = 6;
        std::ostringstream sink;
        const auto res = alignToSam(w.ref, slices[c], sink, opts);
        ASSERT_TRUE(res.ok()) << res.status().str();
        expected[c] = sink.str();
    }

    for (const u64 batch : {u64{1}, u64{7}, u64{64}}) {
        for (const unsigned engine_threads : {1u, 3u}) {
            const std::string what =
                "batch=" + std::to_string(batch) +
                " threads=" + std::to_string(engine_threads);

            ServiceConfig scfg;
            scfg.segments = 6;
            scfg.threads = engine_threads;
            auto svc = AlignService::create(w.ref, scfg);
            ASSERT_TRUE(svc.ok()) << svc.status().str();
            BatcherConfig bcfg;
            bcfg.batchReads = batch;
            Batcher batcher(**svc, bcfg);
            Server server(**svc, batcher);
            const auto ep = Endpoint::parse("tcp:0");
            ASSERT_TRUE(ep.ok());
            ASSERT_TRUE(server.start(*ep).ok());

            std::vector<std::string> served(kClients);
            std::vector<std::thread> clients;
            for (size_t c = 0; c < kClients; ++c) {
                clients.emplace_back([&, c] {
                    auto conn = ServeClient::connect(
                        server.boundEndpoint(),
                        "c" + std::to_string(c));
                    ASSERT_TRUE(conn.ok()) << conn.status().str();
                    std::string sam = conn->samHeader();
                    // 5-read requests so every request straddles
                    // batch boundaries at each flush threshold.
                    const auto &mine = slices[c];
                    for (size_t i = 0; i < mine.size(); i += 5) {
                        const size_t n =
                            std::min<size_t>(5, mine.size() - i);
                        auto lines =
                            conn->align(std::vector<FastqRecord>(
                                mine.begin() + static_cast<long>(i),
                                mine.begin() +
                                    static_cast<long>(i + n)));
                        ASSERT_TRUE(lines.ok())
                            << lines.status().str();
                        for (const auto &line : *lines)
                            sam += line;
                    }
                    conn.value().close();
                    served[c] = std::move(sam);
                });
            }
            for (auto &t : clients)
                t.join();
            server.stop();
            (*svc)->finish();

            for (size_t c = 0; c < kClients; ++c)
                EXPECT_EQ(served[c], expected[c])
                    << what << " client=" << c;
        }
    }
}

} // namespace
} // namespace genax
