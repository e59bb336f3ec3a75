/**
 * @file
 * Serving-layer tests: the latency histogram's bucket/quantile/merge
 * arithmetic, the framed wire protocol (round trips and corruption
 * rejection), the cross-client batcher (ordering, admission control,
 * shutdown semantics), and the full daemon stack end to end over a
 * real socket — including the served-vs-offline SAM byte-identity
 * contract and the serve.* fault-injection sites.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/faultinject.hh"
#include "common/histogram.hh"
#include "genax/pipeline.hh"
#include "readsim/readsim.hh"
#include "readsim/refgen.hh"
#include "serve/batcher.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/service.hh"

namespace genax {
namespace {

// ---------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------

TEST(Histogram, BucketOfIsFloorLog2)
{
    EXPECT_EQ(LatencyHistogram::bucketOf(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(1), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(2), 1u);
    EXPECT_EQ(LatencyHistogram::bucketOf(3), 1u);
    EXPECT_EQ(LatencyHistogram::bucketOf(4), 2u);
    EXPECT_EQ(LatencyHistogram::bucketOf(1023), 9u);
    EXPECT_EQ(LatencyHistogram::bucketOf(1024), 10u);
    EXPECT_EQ(LatencyHistogram::bucketOf(u64{1} << 40), 40u);
    for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i)
        EXPECT_LT(LatencyHistogram::bucketLowNanos(i),
                  LatencyHistogram::bucketHighNanos(i));
}

TEST(Histogram, RecordAndBasicStats)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantileSeconds(0.5), 0.0);
    h.recordNanos(100);
    h.recordNanos(200);
    h.recordNanos(400);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sumNanos(), 700u);
    EXPECT_EQ(h.maxNanos(), 400u);
    EXPECT_DOUBLE_EQ(h.meanSeconds(), 700.0 / 3 / 1e9);
    EXPECT_DOUBLE_EQ(h.maxSeconds(), 400e-9);
    h.recordSeconds(-1.0); // clamps to zero, lands in bucket 0
    EXPECT_EQ(h.bucketCount(0), 1u);
}

TEST(Histogram, QuantilesAreMonotonicAndBounded)
{
    LatencyHistogram h;
    for (u64 i = 1; i <= 1000; ++i)
        h.recordNanos(i * 1000); // 1 us .. 1 ms, uniform
    const double q0 = h.quantileSeconds(0.0);
    const double q50 = h.quantileSeconds(0.5);
    const double q99 = h.quantileSeconds(0.99);
    const double q100 = h.quantileSeconds(1.0);
    EXPECT_LE(q0, q50);
    EXPECT_LE(q50, q99);
    EXPECT_LE(q99, q100);
    EXPECT_LE(q100, h.maxSeconds() + 1e-12);
    // Log buckets give ~2x relative resolution: the median of a
    // uniform 1us..1ms sample must land within a factor of two of
    // the true 0.5 ms.
    EXPECT_GE(q50, 0.25e-3);
    EXPECT_LE(q50, 1.0e-3);
}

TEST(Histogram, MergeIsOrderInvariantAndLossless)
{
    LatencyHistogram whole, shard_a, shard_b;
    for (u64 i = 0; i < 500; ++i) {
        const u64 ns = (i * 2654435761u) % 1000000;
        whole.recordNanos(ns);
        (i % 2 ? shard_a : shard_b).recordNanos(ns);
    }
    LatencyHistogram ab = shard_a, ba = shard_b;
    ab.merge(shard_b);
    ba.merge(shard_a);
    for (const auto *m : {&ab, &ba}) {
        EXPECT_EQ(m->count(), whole.count());
        EXPECT_EQ(m->sumNanos(), whole.sumNanos());
        EXPECT_EQ(m->maxNanos(), whole.maxNanos());
        for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i)
            EXPECT_EQ(m->bucketCount(i), whole.bucketCount(i));
        for (const double q : {0.5, 0.9, 0.99})
            EXPECT_DOUBLE_EQ(m->quantileSeconds(q),
                             whole.quantileSeconds(q));
    }
}

// ---------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTrip)
{
    const std::string payload = "serving bytes \x01\x02\x00 ok";
    const std::string wire =
        encodeFrame(FrameType::AlignResponse, payload);
    ASSERT_GE(wire.size(), sizeof(FrameHeader));
    const auto hdr = decodeFrameHeader(wire.data());
    ASSERT_TRUE(hdr.ok()) << hdr.status().str();
    EXPECT_EQ(static_cast<FrameType>(hdr->type),
              FrameType::AlignResponse);
    EXPECT_EQ(hdr->payloadBytes, payload.size());
    const std::string_view body(wire.data() + sizeof(FrameHeader),
                                wire.size() - sizeof(FrameHeader));
    EXPECT_TRUE(validateFramePayload(*hdr, body).ok());
}

TEST(ServeProtocol, CorruptionIsRejected)
{
    const std::string payload(300, 'x');
    std::string wire = encodeFrame(FrameType::AlignRequest, payload);

    // Bad magic: not a serve stream.
    {
        std::string t = wire;
        t[0] ^= 0x5a;
        EXPECT_FALSE(decodeFrameHeader(t.data()).ok());
    }
    // A flipped header field fails the header checksum.
    {
        std::string t = wire;
        t[9] ^= 0x01; // inside payloadBytes
        EXPECT_FALSE(decodeFrameHeader(t.data()).ok());
    }
    // A flipped payload byte fails the payload checksum.
    {
        std::string t = wire;
        t[sizeof(FrameHeader) + 100] ^= 0x01;
        const auto hdr = decodeFrameHeader(t.data());
        ASSERT_TRUE(hdr.ok());
        const std::string_view body(t.data() + sizeof(FrameHeader),
                                    t.size() - sizeof(FrameHeader));
        EXPECT_FALSE(validateFramePayload(*hdr, body).ok());
    }
}

std::vector<FastqRecord>
someReads()
{
    std::vector<FastqRecord> reads(3);
    reads[0].name = "alpha";
    reads[0].seq = {0, 1, 2, 3, 3, 2};
    reads[0].qual = {30, 31, 32, 33, 34, 35};
    reads[1].name = ""; // empty name survives the trip
    reads[1].seq = {3};
    reads[1].qual = {2};
    reads[2].name = "gamma";
    return reads;
}

TEST(ServeProtocol, AlignRequestRoundTrip)
{
    const auto reads = someReads();
    const std::string payload = encodeAlignRequest(reads);
    const auto back = decodeAlignRequest(payload);
    ASSERT_TRUE(back.ok()) << back.status().str();
    ASSERT_EQ(back->size(), reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        EXPECT_EQ((*back)[i].name, reads[i].name);
        EXPECT_EQ((*back)[i].seq, reads[i].seq);
        EXPECT_EQ((*back)[i].qual, reads[i].qual);
    }
}

/** A u32 record count of 0xFFFFFFFF followed by a few bytes. */
std::string
hugeCountPayload()
{
    return std::string(4, '\xff') + "abcdef";
}

TEST(ServeProtocol, AlignRequestRejectsDamage)
{
    auto reads = someReads();
    // A non-2-bit base code is a protocol violation, not a crash.
    reads[0].seq[2] = 7;
    EXPECT_FALSE(
        decodeAlignRequest(encodeAlignRequest(reads)).ok());
    reads[0].seq[2] = 2;

    const std::string payload = encodeAlignRequest(reads);
    EXPECT_FALSE(decodeAlignRequest(payload + "x").ok());
    EXPECT_FALSE(
        decodeAlignRequest(
            std::string_view(payload.data(), payload.size() - 3))
            .ok());
    EXPECT_FALSE(decodeAlignRequest("").ok());

    // A count the payload cannot hold is rejected before anything is
    // allocated for it.
    const auto huge = decodeAlignRequest(hugeCountPayload());
    ASSERT_FALSE(huge.ok());
    EXPECT_EQ(huge.status().code(), StatusCode::InvalidInput);
}

TEST(ServeProtocol, AlignResponseAndErrorRoundTrip)
{
    const std::vector<std::string> lines = {"r1\t0\tchr1\n", "",
                                            "r3\t4\t*\n"};
    const auto back = decodeAlignResponse(encodeAlignResponse(lines));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, lines);

    const auto huge = decodeAlignResponse(hugeCountPayload());
    ASSERT_FALSE(huge.ok());
    EXPECT_EQ(huge.status().code(), StatusCode::InvalidInput);

    const Status s = invalidInputError("bad batch");
    Status carried;
    ASSERT_TRUE(decodeError(encodeError(s), carried).ok());
    EXPECT_EQ(carried.code(), s.code());
    EXPECT_EQ(carried.message(), s.message());

    // A status code outside the enum must not decode.
    std::string forged = encodeError(s);
    forged[0] = static_cast<char>(0xee);
    Status out;
    EXPECT_FALSE(decodeError(forged, out).ok());
}

// ---------------------------------------------------------------
// Service + batcher against the offline pipeline
// ---------------------------------------------------------------

struct Workload
{
    std::vector<FastaRecord> ref;
    std::vector<FastqRecord> reads;
};

Workload
makeWorkload()
{
    RefGenConfig rcfg;
    rcfg.length = 20000;
    rcfg.seed = 97531;
    const Seq ref = generateReference(rcfg);

    ReadSimConfig rs;
    rs.numReads = 80;
    rs.seed = 13579;
    const auto sim = simulateReads(ref, rs);

    Workload w;
    w.ref.resize(1);
    w.ref[0].name = "serve_ref";
    w.ref[0].seq = ref;
    w.reads.resize(sim.size());
    for (size_t i = 0; i < sim.size(); ++i) {
        w.reads[i].name = "r" + std::to_string(i);
        w.reads[i].seq = sim[i].seq;
        w.reads[i].qual = sim[i].qual;
    }
    return w;
}

/** Offline SAM (header included) over `reads` with the pipeline
 *  config the serving tests mirror. */
std::string
offlineSam(const Workload &w, const std::vector<FastqRecord> &reads)
{
    PipelineOptions opts;
    opts.segments = 6;
    std::ostringstream sink;
    const auto res = alignToSam(w.ref, reads, sink, opts);
    EXPECT_TRUE(res.ok()) << res.status().str();
    return sink.str();
}

ServiceConfig
serviceConfig(unsigned threads = 1)
{
    ServiceConfig cfg;
    cfg.segments = 6;
    cfg.threads = threads;
    return cfg;
}

std::vector<std::vector<FastqRecord>>
slice(const std::vector<FastqRecord> &reads, size_t slices)
{
    std::vector<std::vector<FastqRecord>> out(slices);
    const size_t per = (reads.size() + slices - 1) / slices;
    for (size_t i = 0; i < reads.size(); ++i)
        out[i / per].push_back(reads[i]);
    return out;
}

TEST(AlignServiceTest, BatchMatchesOfflinePipelineByteForByte)
{
    const Workload w = makeWorkload();
    auto svc = AlignService::create(w.ref, serviceConfig());
    ASSERT_TRUE(svc.ok()) << svc.status().str();

    const BatchOutcome out = (*svc)->alignBatch(w.reads);
    ASSERT_EQ(out.samLines.size(), w.reads.size());
    ASSERT_EQ(out.outcomes.size(), w.reads.size());
    EXPECT_EQ(out.mapped + out.unmapped + out.degraded,
              w.reads.size());
    EXPECT_GT(out.mapped, 0u);

    std::string served = (*svc)->headerText();
    for (const auto &line : out.samLines)
        served += line;
    EXPECT_EQ(served, offlineSam(w, w.reads));
    (*svc)->finish();
}

TEST(AlignServiceTest, SoftwareEngineBorrowsTheSnapshotIndex)
{
    // The daemon's software engine takes the snapshot's one index
    // instead of building its own, and the snapshot's k wins.
    const Workload w = makeWorkload();
    const auto dir =
        std::filesystem::temp_directory_path() / "genax_serve_borrow";
    std::filesystem::create_directories(dir);
    const std::string snap = (dir / "ref.gxs").string();
    SegmentConfig scfg;
    scfg.k = 11;
    scfg.segmentCount = 6;
    ASSERT_TRUE(IndexSnapshot::build(snap, w.ref[0].seq,
                                     {{"serve_ref", 0, w.ref[0].seq.size()}},
                                     scfg)
                    .ok());

    ServiceConfig cfg = serviceConfig();
    cfg.engine = EngineOptions::Engine::Software;
    for (const bool attach : {true, false}) {
        cfg.indexSnapshot = attach ? snap : "";
        auto svc = AlignService::create(w.ref, cfg);
        ASSERT_TRUE(svc.ok()) << svc.status().str();
        EXPECT_EQ((*svc)->indexAttachment().fromSnapshot, attach);
        const BwaMemLike *sw = (*svc)->engine().softwareEngine();
        ASSERT_NE(sw, nullptr);
        EXPECT_EQ(sw->index().borrowed(), attach);
        EXPECT_EQ(sw->config().k, attach ? 11u : cfg.k);
        (*svc)->finish();
    }
    std::filesystem::remove_all(dir);
}

TEST(BatcherTest, ConcurrentClientsEachGetTheirOwnSliceInOrder)
{
    const Workload w = makeWorkload();
    auto svc = AlignService::create(w.ref, serviceConfig());
    ASSERT_TRUE(svc.ok()) << svc.status().str();

    BatcherConfig bcfg;
    bcfg.batchReads = 16; // force cross-request batches
    bcfg.batchWaitSeconds = 0.001;
    Batcher batcher(**svc, bcfg);

    const auto slices = slice(w.reads, 4);
    std::vector<std::string> served(slices.size());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < slices.size(); ++c) {
        threads.emplace_back([&, c] {
            const std::string tenant = "t" + std::to_string(c);
            auto lines = batcher.align(tenant, slices[c]);
            ASSERT_TRUE(lines.ok()) << lines.status().str();
            served[c] = (*svc)->headerText();
            for (const auto &line : *lines)
                served[c] += line;
        });
    }
    for (auto &t : threads)
        t.join();
    for (size_t c = 0; c < slices.size(); ++c)
        EXPECT_EQ(served[c], offlineSam(w, slices[c]))
            << "slice " << c;

    const auto snap = batcher.stats();
    EXPECT_EQ(snap.tenants.size(), slices.size());
    EXPECT_GT(snap.batches, 0u);
    EXPECT_EQ(snap.total.count(), slices.size());
    const std::string text = Batcher::statsText(snap);
    EXPECT_NE(text.find("batches:"), std::string::npos);
    EXPECT_NE(text.find("queue-wait:"), std::string::npos);
    EXPECT_NE(text.find("tenant t0:"), std::string::npos);

    batcher.stop();
    (*svc)->finish();
}

TEST(BatcherTest, RejectWhenFullShedsWithResourceExhausted)
{
    const Workload w = makeWorkload();
    auto svc = AlignService::create(w.ref, serviceConfig());
    ASSERT_TRUE(svc.ok()) << svc.status().str();

    BatcherConfig bcfg;
    bcfg.batchReads = 1000000; // never fills
    bcfg.batchWaitSeconds = 30.0;
    bcfg.queueReads = 4;
    bcfg.rejectWhenFull = true;
    Batcher batcher(**svc, bcfg);

    // First request: admitted even though it exceeds the bound (an
    // empty queue always admits), then parks until stop().
    Status parked_status = okStatus();
    std::thread parked([&] {
        auto r = batcher.align(
            "parked",
            std::vector<FastqRecord>(w.reads.begin(),
                                     w.reads.begin() + 8));
        parked_status = r.status();
    });
    while (batcher.stats().queuedReads < 8)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Second request: the queue is over its bound, shed cleanly.
    auto shed = batcher.align(
        "shed", std::vector<FastqRecord>(w.reads.begin(),
                                         w.reads.begin() + 8));
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), StatusCode::ResourceExhausted);

    batcher.stop();
    parked.join();
    EXPECT_EQ(parked_status.code(), StatusCode::Unavailable);

    const auto snap = batcher.stats();
    ASSERT_NE(snap.tenants.find("shed"), snap.tenants.end());
    EXPECT_EQ(snap.tenants.at("shed").rejected, 1u);
    (*svc)->finish();
}

TEST(BatcherTest, AlignAfterStopIsUnavailable)
{
    const Workload w = makeWorkload();
    auto svc = AlignService::create(w.ref, serviceConfig());
    ASSERT_TRUE(svc.ok()) << svc.status().str();
    BatcherConfig bcfg;
    Batcher batcher(**svc, bcfg);
    batcher.stop();
    auto r = batcher.align(
        "late", std::vector<FastqRecord>(w.reads.begin(),
                                         w.reads.begin() + 2));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::Unavailable);
    (*svc)->finish();
}

// ---------------------------------------------------------------
// End to end over a real socket
// ---------------------------------------------------------------

struct Stack
{
    std::unique_ptr<AlignService> svc;
    std::unique_ptr<Batcher> batcher;
    std::unique_ptr<Server> server;

    Stack() = default;
    Stack(Stack &&) = default;

    ~Stack()
    {
        if (server)
            server->stop();
        if (svc)
            svc->finish();
    }
};

Stack
startStack(const Workload &w, const BatcherConfig &bcfg = {})
{
    Stack s;
    auto svc = AlignService::create(w.ref, serviceConfig());
    EXPECT_TRUE(svc.ok()) << svc.status().str();
    s.svc = std::move(svc).value();
    s.batcher = std::make_unique<Batcher>(*s.svc, bcfg);
    s.server = std::make_unique<Server>(*s.svc, *s.batcher);
    const auto ep = Endpoint::parse("tcp:0");
    EXPECT_TRUE(ep.ok());
    const Status st = s.server->start(*ep);
    EXPECT_TRUE(st.ok()) << st.str();
    return s;
}

TEST(ServeEndToEnd, ConcurrentClientsGetByteIdenticalSam)
{
    const Workload w = makeWorkload();
    BatcherConfig bcfg;
    bcfg.batchReads = 24;
    Stack s = startStack(w, bcfg);
    const Endpoint ep = s.server->boundEndpoint();

    const auto slices = slice(w.reads, 3);
    std::vector<std::string> served(slices.size());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < slices.size(); ++c) {
        threads.emplace_back([&, c] {
            auto conn = ServeClient::connect(
                ep, "client" + std::to_string(c));
            ASSERT_TRUE(conn.ok()) << conn.status().str();
            std::string sam = conn->samHeader();
            // Odd request size so requests straddle batches.
            for (size_t i = 0; i < slices[c].size(); i += 5) {
                const size_t n =
                    std::min<size_t>(5, slices[c].size() - i);
                auto lines = conn->align(std::vector<FastqRecord>(
                    slices[c].begin() + static_cast<long>(i),
                    slices[c].begin() + static_cast<long>(i + n)));
                ASSERT_TRUE(lines.ok()) << lines.status().str();
                for (const auto &line : *lines)
                    sam += line;
            }
            conn.value().close();
            served[c] = std::move(sam);
        });
    }
    for (auto &t : threads)
        t.join();
    for (size_t c = 0; c < slices.size(); ++c)
        EXPECT_EQ(served[c], offlineSam(w, slices[c]))
            << "client " << c;

    // Stats round trip through the protocol.
    auto conn = ServeClient::connect(ep, "stats");
    ASSERT_TRUE(conn.ok());
    auto text = conn->stats();
    ASSERT_TRUE(text.ok()) << text.status().str();
    EXPECT_NE(text->find("batches:"), std::string::npos);
    conn.value().close();
}

TEST(ServeEndToEnd, MalformedAlignRequestGetsCleanErrorFrame)
{
    const Workload w = makeWorkload();
    Stack s = startStack(w);
    const Endpoint ep = s.server->boundEndpoint();

    auto sock = Socket::connectTo(ep, 5.0);
    ASSERT_TRUE(sock.ok()) << sock.status().str();
    ASSERT_TRUE(sock->sendFrame(FrameType::Hello, "raw").ok());
    auto ack = sock->recvFrame();
    ASSERT_TRUE(ack.ok());
    ASSERT_EQ(ack->type, FrameType::HelloAck);

    // Garbage payload in a well-formed frame: the daemon answers
    // with an Error frame and drops the stream, not the process.
    ASSERT_TRUE(
        sock->sendFrame(FrameType::AlignRequest, "garbage!").ok());
    auto reply = sock->recvFrame();
    ASSERT_TRUE(reply.ok()) << reply.status().str();
    ASSERT_EQ(reply->type, FrameType::Error);
    Status carried;
    ASSERT_TRUE(decodeError(reply->payload, carried).ok());
    EXPECT_EQ(carried.code(), StatusCode::InvalidInput);
    auto after = sock->recvFrame();
    EXPECT_FALSE(after.ok());
}

TEST(ServeEndToEnd, NonHelloFirstFrameIsRejected)
{
    const Workload w = makeWorkload();
    Stack s = startStack(w);

    auto sock = Socket::connectTo(s.server->boundEndpoint(), 5.0);
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(sock->sendFrame(FrameType::StatsRequest, "").ok());
    auto reply = sock->recvFrame();
    ASSERT_TRUE(reply.ok()) << reply.status().str();
    EXPECT_EQ(reply->type, FrameType::Error);
}

TEST(ServeEndToEnd, WriteFaultSurfacesAsCleanIoError)
{
    const Workload w = makeWorkload();
    Stack s = startStack(w);
    FaultInjector &fi = FaultInjector::instance();
    fi.reset();
    fi.arm(fault::kServeWriteEio, {.probability = 1.0, .seed = 7});
    auto conn = ServeClient::connect(s.server->boundEndpoint(),
                                     "doomed", 2.0);
    fi.reset();
    ASSERT_FALSE(conn.ok());
    EXPECT_NE(conn.status().str().find(fault::kServeWriteEio),
              std::string::npos)
        << conn.status().str();
}

TEST(ServeEndToEnd, AcceptFaultDropsOneConnectionDaemonSurvives)
{
    const Workload w = makeWorkload();
    Stack s = startStack(w);
    const Endpoint ep = s.server->boundEndpoint();
    FaultInjector &fi = FaultInjector::instance();
    fi.reset();
    fi.arm(fault::kServeAcceptFail, {.fireOnNth = 1});

    // First connection: accepted and immediately dropped — the
    // client sees a dead handshake, never a hang.
    auto doomed = ServeClient::connect(ep, "doomed", 2.0);
    EXPECT_FALSE(doomed.ok());
    fi.reset();

    // The daemon survived and serves the next client normally.
    auto conn = ServeClient::connect(ep, "fine", 5.0);
    ASSERT_TRUE(conn.ok()) << conn.status().str();
    auto lines = conn->align(std::vector<FastqRecord>(
        w.reads.begin(), w.reads.begin() + 3));
    ASSERT_TRUE(lines.ok()) << lines.status().str();
    EXPECT_EQ(lines->size(), 3u);
    conn.value().close();
}

TEST(ServeEndToEnd, ReadShortFaultTearsTheHandshakeCleanly)
{
    const Workload w = makeWorkload();
    Stack s = startStack(w);
    FaultInjector &fi = FaultInjector::instance();
    fi.reset();
    fi.arm(fault::kServeReadShort, {.fireOnNth = 1});
    // Whichever side's receive fires first, the handshake must fail
    // with a clean Status — no hang, no torn frame accepted.
    auto conn = ServeClient::connect(s.server->boundEndpoint(),
                                     "torn", 2.0);
    fi.reset();
    EXPECT_FALSE(conn.ok());
}

/** This process's thread count, from /proc/self/status. */
u64
threadCount()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::stoull(line.substr(8));
    }
    ADD_FAILURE() << "no Threads line in /proc/self/status";
    return 0;
}

/** This process's memory mappings, from /proc/self/maps. */
u64
mappingCount()
{
    std::ifstream in("/proc/self/maps");
    u64 lines = 0;
    for (std::string line; std::getline(in, line);)
        ++lines;
    return lines;
}

TEST(ServeEndToEnd, SequentialClientsDoNotGrowThreadsOrMappings)
{
    // A handler's stack (two mappings with its guard page) stays
    // mapped until its thread is joined. A daemon that joined only at
    // shutdown grew by a stack per connection ever served and aborted
    // once thread creation failed.
    const Workload w = makeWorkload();
    Stack s = startStack(w);
    const Endpoint ep = s.server->boundEndpoint();
    const auto client = [&] {
        auto conn = ServeClient::connect(ep, "sequential", 5.0);
        ASSERT_TRUE(conn.ok()) << conn.status().str();
        ASSERT_TRUE(conn->stats().ok());
        conn.value().close();
    };
    for (int c = 0; c < 20; ++c)
        client();
    const u64 threads = threadCount();
    const u64 mappings = mappingCount();
    for (int c = 0; c < 300; ++c)
        client();
    // A closed client's handler may still be unwinding when the next
    // one arrives, and an overlapping thread may get its own malloc
    // arena, so allow a few threads' worth of slack.
    EXPECT_LE(threadCount(), threads + 4);
    EXPECT_LE(mappingCount(), mappings + 32);
}

TEST(ServeEndToEnd, FailedHandlerSpawnGetsResourceExhausted)
{
    const Workload w = makeWorkload();
    Stack s = startStack(w);
    const Endpoint ep = s.server->boundEndpoint();
    FaultInjector &fi = FaultInjector::instance();
    fi.reset();
    fi.arm(fault::kServeSpawnFail, {.fireOnNth = 1});

    // No thread for this connection: a clean Error frame in place of
    // the handshake, not an abort.
    auto refused = ServeClient::connect(ep, "refused", 2.0);
    fi.reset();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::ResourceExhausted)
        << refused.status().str();

    // The daemon survived and serves the next client normally.
    auto conn = ServeClient::connect(ep, "fine", 5.0);
    ASSERT_TRUE(conn.ok()) << conn.status().str();
    auto lines = conn->align(std::vector<FastqRecord>(
        w.reads.begin(), w.reads.begin() + 3));
    ASSERT_TRUE(lines.ok()) << lines.status().str();
    EXPECT_EQ(lines->size(), 3u);
    conn.value().close();
}

TEST(ServeEndToEnd, HandlerExceptionEndsOnlyItsConnection)
{
    const Workload w = makeWorkload();
    Stack s = startStack(w);
    const Endpoint ep = s.server->boundEndpoint();
    FaultInjector &fi = FaultInjector::instance();
    fi.reset();

    // The handler throws std::bad_alloc on the first request frame:
    // the client gets an Internal Error frame, not a dead daemon.
    auto doomed = ServeClient::connect(ep, "doomed", 5.0);
    ASSERT_TRUE(doomed.ok()) << doomed.status().str();
    fi.arm(fault::kServeHandlerThrow, {.fireOnNth = 1});
    auto failed = doomed->align(std::vector<FastqRecord>(
        w.reads.begin(), w.reads.begin() + 3));
    fi.reset();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::Internal)
        << failed.status().str();
    doomed.value().close();

    // The handler returned its slot, and the daemon serves the next
    // client normally.
    for (int spin = 0; spin < 500 && s.server->connectionsServed() < 1;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(s.server->connectionsServed(), 1u);
    auto conn = ServeClient::connect(ep, "fine", 5.0);
    ASSERT_TRUE(conn.ok()) << conn.status().str();
    auto lines = conn->align(std::vector<FastqRecord>(
        w.reads.begin(), w.reads.begin() + 3));
    ASSERT_TRUE(lines.ok()) << lines.status().str();
    EXPECT_EQ(lines->size(), 3u);
    conn.value().close();
}

} // namespace
} // namespace genax
