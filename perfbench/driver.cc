/**
 * @file
 * Benchmark driver: one seeded workload through the repository's
 * public entry points, end to end (perfbench/README.md has the
 * workloads, metrics and checks).
 *
 *   perfbench run --workload NAME --seed N --seconds S --trace 0|1
 *                 --dir WORKDIR [--trace-out FILE]
 *
 * A run generates its inputs from the seed with readsim, times the
 * offline set-up three times, then measures and checks:
 *
 *  - offline software and GenAx legs: FASTQ → SAM through alignFiles()
 *    at width nproc with 4096-read batches, each leg in a fresh child
 *    process so its peak RSS is its own;
 *  - a served window after each pair of legs: the in-process
 *    genax_serve stack (software engine, one engine thread, 64-read
 *    batches, 2 ms deadline) driven at capacity by nproc connections
 *    that each send their next request as soon as the reply arrives.
 *
 * Each metric is the median over at least five such rounds.
 *
 * With --trace 1 the run instead replays each layer from outside,
 * through its public functions, with spans (layers.cc).
 *
 * The last stdout line is the result object; the line before it
 * holds the run facts (nproc, widths, SIMD tier, sample counts).
 *
 *   perfbench leg sw|gx THREADS REF READS SNAPSHOT OUT
 *
 * is the child mode behind each offline leg: one alignFiles() call,
 * reported as one "leg" line on stdout.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "align/simd/dispatch.hh"
#include "common/threadpool.hh"
#include "perfbench.hh"
#include "readsim/refgen.hh"
#include "seed/index_snapshot.hh"
#include "swbase/bwamem_like.hh"

using namespace genax;

namespace perfbench {

// ------------------------------------------------------------------
// Workloads

const Workload *
findWorkload(const std::string &name)
{
    static const std::vector<Workload> all = [] {
        std::vector<Workload> v;
        // Seeding dominates both engines: ~75% of reads are exact.
        Workload paper;
        paper.name = "paper-short";
        paper.refLen = 8'000'000;
        paper.repeatFraction = 0.05;
        paper.offlineReads = 16'000;
        paper.lightRate = 3000;
        paper.heavyRate = 6000;
        v.push_back(paper);
        // Extension dominates: 7x the extension jobs per read.
        Workload div;
        div.name = "divergent-repeats";
        div.refLen = 4'000'000;
        div.repeatFraction = 0.30;
        div.model.baseErrorRate = 0.02;
        div.model.readIndelRate = 0.001;
        div.model.snpRate = 0.005;
        div.offlineReads = 8'000;
        div.lightRate = 1500;
        div.heavyRate = 3000;
        v.push_back(div);
        return v;
    }();
    for (const auto &w : all)
        if (w.name == name)
            return &w;
    return nullptr;
}

// ------------------------------------------------------------------
// Inputs

namespace {

bool
writeFastqFile(const std::string &path,
               const std::vector<FastqRecord> &recs)
{
    std::ofstream out(path, std::ios::binary);
    return writeFastq(out, recs).ok() && out.flush().good();
}

} // namespace

Inputs
generateInputs(const Workload &w, u64 seed, u64 num_reads,
               u64 subset_reads, const std::string &dir)
{
    Inputs in;
    in.dir = dir;
    in.refPath = dir + "/ref.fa";
    in.readsPath = dir + "/reads.fq";
    in.subsetPath = dir + "/subset.fq";
    in.snapPath = dir + "/ref.gxsnap";

    RefGenConfig rcfg;
    rcfg.length = w.refLen;
    rcfg.seed = seed * 2 + 1;
    rcfg.repeatFraction = w.repeatFraction;
    in.fasta.resize(1);
    in.fasta[0].name = "chr1";
    in.fasta[0].seq = generateReference(rcfg);

    ReadSimConfig rs = w.model;
    rs.numReads = num_reads;
    rs.seed = seed * 2 + 2;
    in.truth = simulateReads(in.fasta[0].seq, rs);
    in.reads.resize(in.truth.size());
    for (size_t i = 0; i < in.truth.size(); ++i) {
        in.reads[i].name = "r" + std::to_string(i);
        in.reads[i].seq = in.truth[i].seq;
        in.reads[i].qual = in.truth[i].qual;
    }
    in.subsetReads = std::min<u64>(subset_reads, in.reads.size());

    std::ofstream ref(in.refPath, std::ios::binary);
    const bool ok = writeFasta(ref, in.fasta).ok() && ref.flush().good() &&
                    writeFastqFile(in.readsPath, in.reads) &&
                    writeFastqFile(in.subsetPath,
                                   {in.reads.begin(),
                                    in.reads.begin() +
                                        static_cast<long>(in.subsetReads)});
    if (!ok) {
        std::fprintf(stderr, "perfbench: cannot write inputs in %s\n",
                     dir.c_str());
        std::exit(2);
    }
    return in;
}

Status
buildSnapshot(const Inputs &in)
{
    const ContigMap contigs(in.fasta);
    std::vector<SnapshotContig> snap_contigs;
    for (const auto &c : contigs.contigs())
        snap_contigs.push_back({c.name, c.start, c.length});
    SegmentConfig scfg;
    scfg.k = kK;
    scfg.segmentCount = kSegments;
    scfg.overlap = kSegmentOverlap;
    return IndexSnapshot::build(in.snapPath, contigs.sequence(),
                                snap_contigs, scfg);
}

double
offlineSetup(const Inputs &in, unsigned threads)
{
    const auto t0 = Clock::now();
    const Status built = buildSnapshot(in);
    GENAX_CHECK(built.ok(), "snapshot build: ", built.str());
    const ContigMap contigs(in.fasta);
    const Seq &ref = contigs.sequence();
    const auto att = attachIndexSnapshot(in.snapPath, ref);
    GENAX_CHECK(att.ok() && att->fromSnapshot, "snapshot attach failed");

    GenAxConfig gcfg;
    gcfg.k = kK;
    gcfg.editBound = kBand;
    gcfg.threads = threads;
    applyIndexAttachment(gcfg, *att);
    const GenAxSystem system(ref, gcfg);

    AlignerConfig acfg;
    acfg.k = kK;
    acfg.band = kBand;
    acfg.threads = threads;
    const BwaMemLike aligner(ref, acfg);
    return secondsSince(t0);
}

// ------------------------------------------------------------------
// Serving stack

void
ServeStack::stop()
{
    for (auto &c : clients)
        c.close();
    clients.clear();
    if (server)
        server->stop();
    if (batcher)
        batcher->stop();
    if (service)
        service->finish();
    server.reset();
    batcher.reset();
    service.reset();
}

StatusOr<double>
startServe(ServeStack &stack, const Inputs &in, unsigned connections)
{
    const auto t0 = Clock::now();
    ServiceConfig scfg;
    scfg.engine = PipelineOptions::Engine::Software;
    scfg.k = kK;
    scfg.band = kBand;
    scfg.threads = 1;
    GENAX_TRY_ASSIGN(auto service, AlignService::create(in.fasta, scfg));
    stack.service = std::move(service);
    stack.batcher =
        std::make_unique<Batcher>(*stack.service, BatcherConfig{});
    stack.server = std::make_unique<Server>(*stack.service, *stack.batcher);

    // A Unix socket in the work directory; TCP loopback when the path
    // does not fit sockaddr_un.
    auto ep = Endpoint::parse("unix:" + in.dir + "/serve.sock");
    Status st = ep.ok() ? stack.server->start(*ep) : ep.status();
    if (!st.ok()) {
        ep = Endpoint::parse("tcp:127.0.0.1:0");
        GENAX_TRY(ep.status());
        GENAX_TRY(stack.server->start(*ep));
    }
    const Endpoint bound = stack.server->boundEndpoint();
    for (unsigned c = 0; c < connections; ++c) {
        GENAX_TRY_ASSIGN(auto client, ServeClient::connect(
                                     bound, "conn" + std::to_string(c)));
        stack.clients.push_back(std::move(client));
    }
    return secondsSince(t0);
}

namespace {

/** The reads of request r: the r-th run of kReadsPerRequest reads. */
std::vector<FastqRecord>
requestReads(const Inputs &in, u64 r)
{
    return {in.reads.begin() + static_cast<long>(r * kReadsPerRequest),
            in.reads.begin() + static_cast<long>((r + 1) * kReadsPerRequest)};
}

/** Sampled served responses checked against the offline SAM. */
struct ServedCheck
{
    u64 compared = 0;
    u64 mismatched = 0;

    /** Compare the response to request r with `expected` (the offline
     *  SAM line of each read) when it covers the request's reads. */
    void
    add(const std::vector<std::string> &lines,
        const std::vector<std::string> &expected, u64 r)
    {
        if ((r + 1) * kReadsPerRequest > expected.size())
            return;
        ++compared;
        for (size_t k = 0; k < lines.size(); ++k)
            if (lines[k] != expected[r * kReadsPerRequest + k]) {
                ++mismatched;
                return;
            }
    }
};

} // namespace

RatePoint
runRatePoint(ServeStack &stack, const Inputs &in,
             const std::vector<std::string> &expected,
             double reads_per_second, double seconds, u64 seed,
             Tracer *tracer)
{
    RatePoint pt;
    const std::vector<double> due = poissonSchedule(
        seed, reads_per_second / kReadsPerRequest, seconds);
    const u64 requests = in.reads.size() / kReadsPerRequest;

    struct Sample
    {
        double due, late, latency, rtt;
    };
    struct Sender
    {
        std::vector<Sample> samples;
        u64 sent = 0, failed = 0;
        ServedCheck check;
    };
    std::vector<Sender> senders(stack.clients.size());
    std::atomic<size_t> next{0};
    // Lead time so every sender is waiting before the first due time.
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    const double start_traced = tracer ? tracer->now() + 0.020 : 0.0;

    std::vector<std::thread> threads;
    for (size_t c = 0; c < stack.clients.size(); ++c) {
        threads.emplace_back([&, c] {
            Sender &me = senders[c];
            ServeClient &client = stack.clients[c];
            for (;;) {
                const size_t i = next.fetch_add(1);
                if (i >= due.size())
                    return;
                const auto due_at =
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(due[i]));
                std::this_thread::sleep_until(due_at);
                const u64 r = (seed + i) % requests;
                const std::vector<FastqRecord> req = requestReads(in, r);
                const auto sent_at = Clock::now();
                ++me.sent;
                auto lines = client.align(req);
                const auto done_at = Clock::now();
                if (!lines.ok() || lines->size() != req.size()) {
                    ++me.failed;
                    continue;
                }
                const auto ms = [](auto a, auto b) {
                    return std::chrono::duration<double, std::milli>(b - a)
                        .count();
                };
                me.samples.push_back({due[i], ms(due_at, sent_at),
                                      ms(due_at, done_at),
                                      ms(sent_at, done_at)});
                if (tracer) {
                    const double d = start_traced + due[i];
                    const double s = d + ms(due_at, sent_at) / 1e3;
                    const double e = d + ms(due_at, done_at) / 1e3;
                    const u64 id = tracer->add("serve.request", d, e, 0,
                                               i + 1);
                    tracer->add("serve.generator_late", d, s, id, i + 1);
                    tracer->add("serve.round_trip", s, e, id, i + 1);
                }
                if (i % 16 == 0)
                    me.check.add(*lines, expected, r);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    std::vector<Sample> all;
    for (const Sender &s : senders) {
        all.insert(all.end(), s.samples.begin(), s.samples.end());
        pt.sent += s.sent;
        pt.failed += s.failed;
        pt.compared += s.check.compared;
        pt.mismatched += s.check.mismatched;
    }
    std::vector<double> first, last;
    for (const Sample &s : all) {
        pt.latenessMs.push_back(s.late);
        pt.latencyMs.push_back(s.latency);
        pt.roundTripMs.push_back(s.rtt);
        if (s.due < seconds / 4)
            first.push_back(s.latency);
        else if (s.due >= 3 * seconds / 4)
            last.push_back(s.latency);
    }
    // A backlog that grows over the window shows as a last quarter
    // slower than the first by more than the noise of a steady state.
    pt.backlog = first.empty() || last.empty() ||
                 median(last) > median(first) + kBacklogMs;
    return pt;
}

// ------------------------------------------------------------------
// Output

void
printResult(bool correct, u64 attempted, u64 failed,
            const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
}

} // namespace perfbench

using namespace perfbench;

namespace {

// ------------------------------------------------------------------
// Offline legs, each in its own process

std::string gSelf; //!< this executable, for the leg children

/** Child mode: one alignFiles() leg. */
int
legMain(int argc, char **argv)
{
    if (argc != 8) {
        std::fprintf(stderr, "perfbench leg: bad arguments\n");
        return 2;
    }
    PipelineOptions opts;
    opts.engine = std::strcmp(argv[2], "gx") == 0
                      ? PipelineOptions::Engine::GenAx
                      : PipelineOptions::Engine::Software;
    opts.threads = static_cast<unsigned>(std::atoi(argv[3]));
    opts.batchReads = kBatchReads;
    if (opts.engine == PipelineOptions::Engine::GenAx)
        opts.indexSnapshot = argv[6];
    const auto t0 = Clock::now();
    auto res = alignFiles(argv[4], argv[5], argv[7], opts);
    const double secs = secondsSince(t0);
    if (!res.ok()) {
        std::fprintf(stderr, "perfbench leg: %s\n",
                     res.status().str().c_str());
        return 3;
    }
    // Peak RSS of this process's own address space. The rusage a
    // parent gets from wait4() would also count the pages the child
    // shared with the driver between fork and exec.
    double hwm_mb = 0.0;
    {
        std::ifstream st("/proc/self/status");
        for (std::string line; std::getline(st, line);)
            if (line.rfind("VmHWM:", 0) == 0)
                hwm_mb = std::atof(line.c_str() + 6) / 1024.0;
    }
    const GenAxPerf &p = res->perf;
    // The modelled rate projected onto the paper's whole-genome run,
    // as Figure 15 reports it: per-read seeding and extension costs
    // carry over, and DRAM streaming is charged at that scale.
    double model_rps = 0.0;
    if (p.reads > 0) {
        GenAxConfig gcfg;
        gcfg.k = kK;
        gcfg.editBound = kBand;
        model_rps = GenAxSystem::project(gcfg, p, u64{787'265'109}, 101,
                                         u64{3'080'000'000}, 512)
                        .readsPerSecond;
    }
    std::printf("leg %.17g %.17g %" PRIu64 " %" PRIu64
                " %d %d %.17g %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %" PRIu64 " %.17g\n",
                secs, hwm_mb, res->reads, res->failed + res->skippedMalformed,
                res->ledgerBalanced() ? 1 : 0,
                res->indexFromSnapshot ? 1 : 0, model_rps,
                p.extensionJobs, p.exactReads, p.seeding.indexLookups,
                p.seeding.smems, static_cast<u64>(p.lanes.totalCycles()),
                p.degradedJobs, p.totalSeconds);
    return 0;
}

struct LegResult
{
    bool ok = false;
    std::string why;
    double seconds = 0.0;
    double rssMb = 0.0;
    u64 reads = 0, lost = 0;
    bool balanced = false, fromSnapshot = false;
    double modelReadsPerSecond = 0.0;
    std::string modelCounts; //!< the deterministic modelled fields
};

/** Run one leg in a child process; its result line comes back through
 *  a pipe. */
LegResult
runLeg(const std::string &engine, unsigned threads, const Inputs &in,
       const std::string &reads, const std::string &out_sam)
{
    LegResult lr;
    const std::string thr = std::to_string(threads);
    std::vector<std::string> args = {gSelf,      "leg",     engine,
                                     thr,        in.refPath, reads,
                                     in.snapPath, out_sam};
    // Built before fork(): the daemon's threads live in this process,
    // so the child may only make async-signal-safe calls before exec.
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    int fds[2];
    if (pipe(fds) != 0) {
        lr.why = "pipe failed";
        return lr;
    }
    const pid_t pid = fork();
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        execv(argv[0], argv.data());
        _exit(127);
    }
    close(fds[1]);
    std::string out;
    char buf[4096];
    for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;)
        out.append(buf, static_cast<size_t>(n));
    close(fds[0]);
    int status = 0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        lr.why = engine + " leg exited abnormally";
        return lr;
    }
    std::istringstream is(out);
    std::string tag;
    int balanced = 0, snap = 0;
    is >> tag >> lr.seconds >> lr.rssMb >> lr.reads >> lr.lost >>
        balanced >> snap >> lr.modelReadsPerSecond;
    std::getline(is, lr.modelCounts);
    lr.balanced = balanced == 1;
    lr.fromSnapshot = snap == 1;
    lr.ok = tag == "leg" && !is.fail() && lr.rssMb > 0;
    if (!lr.ok)
        lr.why = engine + " leg printed no result";
    return lr;
}

/** SAM records of one leg, checked against the inputs. */
struct SamCheck
{
    u64 records = 0;
    u64 correct = 0;
    bool inOrder = true; //!< record i names read i
    std::vector<std::string> lines; //!< kept when asked for
};

SamCheck
checkSam(const std::string &path, const Inputs &in, bool keep_lines)
{
    SamCheck sc;
    std::ifstream f(path, std::ios::binary);
    std::string line;
    while (std::getline(f, line)) {
        const auto p = parseSamPlacement(line);
        if (!p)
            continue;
        const u64 i = sc.records++;
        if (i >= in.reads.size() || p->qname != in.reads[i].name) {
            sc.inOrder = false;
            continue;
        }
        sc.correct += placementCorrect(*p, in.truth[i].truthPos,
                                       in.truth[i].reverse);
        if (keep_lines)
            sc.lines.push_back(line + "\n");
    }
    return sc;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream s;
    s << f.rdbuf();
    return s.str();
}

/** Failed checks and operation counts of one run. */
struct Ledger
{
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> errors;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
    }
};

/** Length of one served window; one runs after each offline round. */
constexpr double kServeWindowS = 1.5;

/** One closed-loop served window. */
struct ServeWindow
{
    double readsPerSecond = 0.0; //!< reads answered ÷ window wall time
    u64 reads = 0;               //!< reads answered
    u64 sent = 0;
    u64 failed = 0; //!< refused or errored requests
    ServedCheck check;
};

/**
 * Drive the daemon at its capacity for `seconds`: every connection
 * sends its next request as soon as its reply arrives. Every 16th
 * response is compared with `expected`.
 */
ServeWindow
runClosedLoop(ServeStack &stack, const Inputs &in,
              const std::vector<std::string> &expected, double seconds,
              u64 seed)
{
    const u64 requests = in.reads.size() / kReadsPerRequest;
    std::vector<ServeWindow> senders(stack.clients.size());
    std::atomic<u64> next{0};
    const auto t0 = Clock::now();
    const auto stop_at =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < stack.clients.size(); ++c) {
        threads.emplace_back([&, c] {
            ServeWindow &me = senders[c];
            while (Clock::now() < stop_at) {
                const u64 i = next.fetch_add(1);
                const u64 r = (seed + i) % requests;
                const std::vector<FastqRecord> req = requestReads(in, r);
                ++me.sent;
                auto lines = stack.clients[c].align(req);
                if (!lines.ok() || lines->size() != req.size()) {
                    ++me.failed;
                    continue;
                }
                me.reads += req.size();
                if (i % 16 == 0)
                    me.check.add(*lines, expected, r);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const double elapsed = secondsSince(t0);

    ServeWindow win;
    for (const ServeWindow &me : senders) {
        win.reads += me.reads;
        win.sent += me.sent;
        win.failed += me.failed;
        win.check.compared += me.check.compared;
        win.check.mismatched += me.check.mismatched;
    }
    win.readsPerSecond = static_cast<double>(win.reads) / elapsed;
    return win;
}

/** Everything one untraced run measures. */
struct Measurement
{
    std::vector<double> swRate, gxRate, swRss, gxRss, serveRate;
    double gxModelRate = 0.0;
    double swCorrect = 0.0, gxCorrect = 0.0;
    int rounds = 0;
    u64 serveRequests = 0; //!< requests answered in the timed windows
};

/** One checked leg over every read. */
LegResult
checkedLeg(const std::string &engine, unsigned threads, const Inputs &in,
           Ledger &ledger, double &correct_frac,
           std::vector<std::string> *lines)
{
    const std::string sam = in.dir + "/" + engine + ".sam";
    LegResult lr = runLeg(engine, threads, in, in.readsPath, sam);
    const u64 n = in.reads.size();
    ledger.attempted += n;
    ledger.check(lr.ok, lr.why);
    if (!lr.ok) {
        ledger.failed += n;
        return lr;
    }
    ledger.failed += lr.lost;
    ledger.check(lr.balanced, engine + ": ledger not balanced");
    ledger.check(lr.reads == n, engine + ": ledger read count");
    ledger.check(engine == "sw" || lr.fromSnapshot,
                 "gx: snapshot not attached");
    const SamCheck sc = checkSam(sam, in, lines != nullptr);
    ledger.check(sc.records == n && sc.inOrder,
                 engine + ": SAM is not one record per read in order");
    const double frac = static_cast<double>(sc.correct) / n;
    // Placement is deterministic: every repetition must agree.
    ledger.check(correct_frac == 0.0 || correct_frac == frac,
                 engine + ": correct fraction changed between runs");
    correct_frac = frac;
    if (lines != nullptr)
        *lines = sc.lines;
    return lr;
}

/**
 * The measured part of a run: the daemon is started, then rounds run
 * until `seconds` have passed, at least five of them. A round is the
 * software leg, the GenAx leg and one served window, so the served
 * windows sample the same stretch of the run as the offline legs.
 */
Measurement
measure(const Inputs &in, unsigned nproc, double seconds, u64 seed,
        Ledger &ledger)
{
    Measurement m;
    // The width check and a software leg on the same subset run
    // first: besides the check, they warm the host up, since the first
    // leg of each engine after the set-up ran up to 55% slow.
    const std::string one = in.dir + "/width1.sam";
    const std::string wide = in.dir + "/widthn.sam";
    const LegResult a = runLeg("gx", 1, in, in.subsetPath, one);
    const LegResult b = runLeg("gx", nproc, in, in.subsetPath, wide);
    ledger.attempted += 2 * in.subsetReads;
    ledger.check(a.ok && b.ok && a.modelCounts == b.modelCounts &&
                     a.modelReadsPerSecond == b.modelReadsPerSecond,
                 "gx: modelled counts differ between width 1 and " +
                     std::to_string(nproc));
    ledger.check(slurp(one) == slurp(wide),
                 "gx: SAM differs between width 1 and " +
                     std::to_string(nproc));
    const LegResult warm =
        runLeg("sw", nproc, in, in.subsetPath, in.dir + "/warm.sam");
    ledger.attempted += in.subsetReads;
    ledger.check(warm.ok && warm.balanced, "sw: warm-up leg failed");

    ServeStack stack;
    const auto up = startServe(stack, in, nproc);
    ledger.check(up.ok(), "serve start-up: " + up.status().str());
    if (!up.ok())
        return m;
    auto served = [&](const std::vector<std::string> &expected, u64 salt) {
        const ServeWindow w =
            runClosedLoop(stack, in, expected, kServeWindowS, seed + salt);
        ledger.attempted += w.sent;
        ledger.failed += w.failed;
        ledger.check(w.check.mismatched == 0,
                     "served SAM differs from the offline SAM");
        return w;
    };
    served({}, 0); // warm-up: the daemon's first batches run slow

    std::vector<std::string> expected; // offline SAM lines, per read
    const auto t0 = Clock::now();
    const double n = static_cast<double>(in.reads.size());
    while (m.rounds < 5 || secondsSince(t0) < seconds) {
        const LegResult sw =
            checkedLeg("sw", nproc, in, ledger, m.swCorrect,
                       m.rounds == 0 ? &expected : nullptr);
        const LegResult gx =
            checkedLeg("gx", nproc, in, ledger, m.gxCorrect, nullptr);
        if (!sw.ok || !gx.ok)
            break;
        const ServeWindow sv = served(expected, 1 + m.rounds);
        ledger.check(sv.check.compared > 0,
                     "no served response was compared");
        std::fprintf(stderr,
                     "perfbench: round %d: sw %.0f reads/s, gx %.0f "
                     "reads/s, served %.0f reads/s\n",
                     m.rounds, n / sw.seconds, n / gx.seconds,
                     sv.readsPerSecond);
        m.swRate.push_back(n / sw.seconds);
        m.gxRate.push_back(n / gx.seconds);
        m.swRss.push_back(sw.rssMb);
        m.gxRss.push_back(gx.rssMb);
        m.serveRate.push_back(sv.readsPerSecond);
        m.serveRequests += sv.reads / kReadsPerRequest;
        ledger.check(m.rounds == 0 ||
                         gx.modelReadsPerSecond == m.gxModelRate,
                     "gx: modelled rate changed between rounds");
        m.gxModelRate = gx.modelReadsPerSecond;
        ++m.rounds;
    }
    return m;
}

// ------------------------------------------------------------------
// Driver

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 20;
    int trace = 0;
    std::string dir;
    std::string traceOut;
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench run --workload NAME "
                 "--seed N --seconds S --trace 0|1 --dir WORKDIR "
                 "[--trace-out FILE]\n",
                 why);
    return 2;
}

std::string
factsLine(const Args &a, unsigned nproc, const Measurement &m)
{
    std::ostringstream f;
    f << "{\"facts\": {\"workload\": \"" << a.workload
      << "\", \"seed\": " << a.seed << ", \"nproc\": " << nproc
      << ", \"width_offline\": " << ThreadPool::resolveWidth(nproc)
      << ", \"width_serve_engine\": " << ThreadPool::resolveWidth(1)
      << ", \"simd_tier\": \""
      << simd::kernelTierName(simd::activeKernelTier())
      << "\", \"offline_rounds\": " << m.rounds
      << ", \"serve_windows\": " << m.serveRate.size()
      << ", \"serve_window_s\": " << kServeWindowS
      << ", \"serve_requests\": " << m.serveRequests
      << ", \"tracing_overhead_s\": null}}";
    return f.str();
}

int
runMain(const Args &a)
{
    const Workload *w = findWorkload(a.workload);
    if (w == nullptr)
        return usage(("unknown workload: " + a.workload).c_str());
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());

    const Inputs in =
        generateInputs(*w, a.seed, w->offlineReads, 2000, a.dir);
    if (a.trace == 1)
        return runTraced(*w, in, a.seconds, a.seed, nproc, a.traceOut);

    // Set-up, three times, reported as the median. The daemon's
    // start-up is a layer metric of the traced run.
    Ledger ledger;
    std::vector<double> setup;
    for (int i = 0; i < 3; ++i)
        setup.push_back(offlineSetup(in, nproc));

    const auto t0 = Clock::now();
    const Measurement m = measure(in, nproc, a.seconds, a.seed, ledger);
    std::fprintf(stderr, "perfbench: %s seed %llu: %d rounds, measured "
                 "in %.1f s\n", w->name.c_str(),
                 static_cast<unsigned long long>(a.seed), m.rounds,
                 secondsSince(t0));

    const std::vector<Metric> metrics = {
        {"setup_s", median(setup), "s"},
        {"sw_reads_per_s", median(m.swRate), "reads/s"},
        {"gx_reads_per_s", median(m.gxRate), "reads/s"},
        {"gx_model_reads_per_s", m.gxModelRate, "reads/s"},
        {"sw_correct_frac", m.swCorrect, "frac"},
        {"gx_correct_frac", m.gxCorrect, "frac"},
        {"sw_peak_rss_mb", median(m.swRss), "MB"},
        {"gx_peak_rss_mb", median(m.gxRss), "MB"},
        {"serve_max_rate_reads_per_s", median(m.serveRate), "reads/s"},
    };
    for (const Metric &x : metrics)
        ledger.check(x.value > 0, x.name + " was not measured");
    for (const auto &e : ledger.errors)
        std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    std::printf("%s\n", factsLine(a, nproc, m).c_str());
    const bool correct = ledger.errors.empty();
    printResult(correct, ledger.attempted, ledger.failed, metrics);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    gSelf = argv[0];
    {
        char buf[4096];
        const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
        if (n > 0)
            gSelf.assign(buf, static_cast<size_t>(n));
    }
    if (argc >= 2 && std::strcmp(argv[1], "leg") == 0)
        return legMain(argc, argv);
    if (argc < 2 || std::strcmp(argv[1], "run") != 0)
        return usage("expected 'run' or 'leg'");
    Args a;
    for (int i = 2; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = std::atoi(v.c_str());
        else if (k == "--dir")
            a.dir = v;
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            return usage(("unknown option: " + k).c_str());
    }
    if (a.workload.empty() || a.dir.empty() || a.seconds <= 0)
        return usage("--workload, --dir and a positive --seconds are "
                     "required");
    return runMain(a);
}
