/**
 * @file
 * Shared pieces of the benchmark driver: the workload definitions,
 * the generated inputs, the in-process serving stack and the
 * open-loop rate point. driver.cc runs the untraced legs and prints
 * the end-to-end metrics; layers.cc runs the traced, layer-by-layer
 * replay.
 */

#ifndef GENAX_PERFBENCH_PERFBENCH_HH
#define GENAX_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "genax/pipeline.hh"
#include "readsim/readsim.hh"
#include "serve/batcher.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/service.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Alignment parameters shared by every leg: the genax_align
 *  defaults (PipelineOptions). */
constexpr genax::u32 kK = 12;
constexpr genax::u32 kBand = 40;
constexpr genax::u64 kSegments = 8;
constexpr genax::u64 kSegmentOverlap = 256;
constexpr genax::u64 kBatchReads = 4096;
constexpr genax::u64 kReadsPerRequest = 16;
/** Share of --seconds spent on each of the light and heavy rates in
 *  the traced run. */
constexpr double kPointShare = 0.15;
/** A rate point's backlog grows when the median latency of its last
 *  quarter exceeds its first quarter's by this much. */
constexpr double kBacklogMs = 50.0;

/** One benchmark workload: a readsim reference and read model. */
struct Workload
{
    std::string name;
    genax::u64 refLen = 0;
    double repeatFraction = 0.0;
    genax::ReadSimConfig model; //!< numReads and seed set per run
    genax::u64 offlineReads = 0; //!< reads per offline leg
    /** Served open-loop rates in reads/s: about a quarter and a half
     *  of the one-thread engine's capacity on the workload's reads. */
    double lightRate = 0.0;
    double heavyRate = 0.0;
};

/** The workload named `name`, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Generated inputs of one run; the program only sees the files. */
struct Inputs
{
    std::string dir;
    std::string refPath;    //!< FASTA, one contig
    std::string readsPath;  //!< FASTQ of every offline read
    std::string subsetPath; //!< FASTQ prefix for the width check
    std::string snapPath;   //!< GXSNAP written by the offline setup
    std::vector<genax::FastaRecord> fasta;
    std::vector<genax::FastqRecord> reads;
    std::vector<genax::SimRead> truth; //!< parallel to reads
    genax::u64 subsetReads = 0;
};

Inputs generateInputs(const Workload &w, genax::u64 seed,
                      genax::u64 num_reads, genax::u64 subset_reads,
                      const std::string &dir);

/** Write the workload's GXSNAP snapshot (genax_index --format flat
 *  with the genax_align defaults) to in.snapPath. */
genax::Status buildSnapshot(const Inputs &in);

/** Offline set-up: the snapshot build plus engine construction. */
double offlineSetup(const Inputs &in, unsigned threads);

/** The in-process daemon stack with its client connections, at the
 *  genax_serve defaults (software engine, one engine thread). */
struct ServeStack
{
    std::unique_ptr<genax::AlignService> service;
    std::unique_ptr<genax::Batcher> batcher;
    std::unique_ptr<genax::Server> server;
    std::vector<genax::ServeClient> clients;

    ServeStack() = default;
    ServeStack(const ServeStack &) = delete;
    ServeStack &operator=(const ServeStack &) = delete;
    ~ServeStack() { stop(); }

    /** Close the clients, stop the server and the batcher, close the
     *  engine stream. Idempotent. */
    void stop();
};

/** AlignService::create, Server::start and the client connects;
 *  returns the start-up seconds or an error. */
genax::StatusOr<double> startServe(ServeStack &stack, const Inputs &in,
                                   unsigned connections);

/** One open-loop rate point. Every latency is timed from the
 *  request's due time. */
struct RatePoint
{
    std::vector<double> latencyMs;   //!< due → reply, per answered request
    std::vector<double> latenessMs;  //!< due → send
    std::vector<double> roundTripMs; //!< send → reply
    u64 sent = 0;
    u64 failed = 0;     //!< refused or errored requests
    u64 compared = 0;   //!< sampled responses checked
    u64 mismatched = 0; //!< sampled responses unlike the offline SAM
    bool backlog = false; //!< last quarter much slower than the first

    double p(double q) const { return percentile(latencyMs, q); }
};

/**
 * Send kReadsPerRequest-read requests on a seeded Poisson schedule at
 * `reads_per_second` for `seconds`, one sender thread per connection.
 * Every 16th response is compared with `expected` (the offline SAM
 * line of each read, newline included) when it covers the request's
 * reads. Spans go to `tracer` when
 * given, all spans of one request sharing its id.
 */
RatePoint runRatePoint(ServeStack &stack, const Inputs &in,
                       const std::vector<std::string> &expected,
                       double reads_per_second, double seconds,
                       u64 seed, Tracer *tracer = nullptr);

/** Traced run: prints the facts and per-layer metrics lines, writes
 *  the spans to `trace_out` (when not empty); returns the exit
 *  code. */
int runTraced(const Workload &w, const Inputs &in, double seconds,
              u64 seed, unsigned nproc, const std::string &trace_out);

/** One metric of the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Print the result line: {"correct", "attempted", "failed",
 *  "metrics"}. */
void printResult(bool correct, u64 attempted, u64 failed,
                 const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // GENAX_PERFBENCH_PERFBENCH_HH
