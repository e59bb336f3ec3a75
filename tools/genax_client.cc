/**
 * @file
 * genax_client — genax_serve client and synthetic load generator.
 *
 * Single-client mode (default):
 *
 *   genax_client --connect unix:/tmp/genax.sock --reads reads.fq
 *                --out out.sam [--reads-per-request N]
 *                [--tenant NAME]
 *
 * Streams the FASTQ through the daemon in requests of N reads and
 * writes the returned SAM. Output is all-or-nothing: the file is
 * written only after every request round-tripped, so a daemon that
 * dies mid-conversation leaves no partial SAM behind (the client
 * exits 3 with the transport error instead). The written bytes are
 * identical to an offline `genax_align --index` run over the same
 * reads.
 *
 * Load-generator mode (--clients N):
 *
 *   genax_client --connect ... --reads reads.fq --clients 64
 *                [--repeat R] [--reads-per-request N] [--stats]
 *
 * Spawns N concurrent connections, each sending R requests cycling
 * through the read file, and reports sustained reads/s plus
 * p50/p99/max request latency across all clients.
 *
 * Exit codes: 0 success; 2 usage error; 3 transport/serve error.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.hh"
#include "flags.hh"
#include "io/fastq.hh"
#include "io/reader.hh"
#include "serve/client.hh"

using namespace genax;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 3;

void
printHelp(const char *prog, std::FILE *to)
{
    std::fprintf(
        to,
        "usage: %s --connect ENDPOINT --reads reads.fq\n"
        "          (--out out.sam | --clients N) [options]\n"
        "\n"
        "Client and load generator for genax_serve.\n"
        "\n"
        "options:\n"
        "  --connect ENDPOINT    unix:PATH, tcp:PORT or\n"
        "                        tcp:HOST:PORT (required)\n"
        "  --reads FILE          reads FASTQ (required)\n"
        "  --out FILE            write the returned SAM here\n"
        "                        (single-client mode; all-or-nothing)\n"
        "  --reads-per-request N reads per align request (default 16)\n"
        "  --tenant NAME         client identity in the daemon's\n"
        "                        ledger (default: client-PID or\n"
        "                        loadgen-K)\n"
        "  --clients N           load-generator mode: N concurrent\n"
        "                        connections (at most 1024)\n"
        "  --repeat R            requests per client in load mode\n"
        "                        (default 4)\n"
        "  --timeout S           connect timeout seconds (default 5)\n"
        "  --stats               fetch and print the daemon's serving\n"
        "                        stats when done\n"
        "  -h, --help            show this help and exit\n"
        "\n"
        "exit codes: 0 success; 2 usage error; 3 transport/serve "
        "error\n",
        prog);
}

/** Split `reads` into slices of `per` for request framing. */
std::vector<std::vector<FastqRecord>>
sliceRequests(const std::vector<FastqRecord> &reads, u64 per)
{
    std::vector<std::vector<FastqRecord>> out;
    for (size_t i = 0; i < reads.size(); i += per) {
        const size_t n = std::min<size_t>(per, reads.size() - i);
        out.emplace_back(reads.begin() + static_cast<long>(i),
                         reads.begin() + static_cast<long>(i + n));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string connect, reads_path, out_path, tenant;
    u64 per_request = 16;
    u64 clients = 0;
    u64 repeat = 4;
    double timeout = 5.0;
    bool want_stats = false;

    FlagParser flags(argc, argv, printHelp);
    while (flags.next()) {
        const std::string &arg = flags.arg();
        if (arg == "--connect") {
            connect = flags.value();
        } else if (arg == "--reads") {
            reads_path = flags.value();
        } else if (arg == "--out") {
            out_path = flags.value();
        } else if (arg == "--reads-per-request") {
            per_request = flags.number(1, UINT64_MAX);
        } else if (arg == "--tenant") {
            tenant = flags.value();
        } else if (arg == "--clients") {
            clients = flags.number(0, kMaxFlagClients);
        } else if (arg == "--repeat") {
            repeat = flags.number(0, UINT64_MAX);
        } else if (arg == "--timeout") {
            timeout = flags.number<double>(0.0);
        } else if (arg == "--stats") {
            want_stats = true;
        } else if (arg == "--help" || arg == "-h") {
            printHelp(argv[0], stdout);
            return kExitOk;
        } else {
            flags.usageError("unknown option: " + arg);
        }
    }
    if (connect.empty() || reads_path.empty())
        flags.usageError("--connect and --reads are required");
    if (out_path.empty() && clients == 0)
        flags.usageError("either --out (single client) or --clients N "
                         "(load generator) is required");

    const auto endpoint = Endpoint::parse(connect);
    if (!endpoint.ok()) {
        std::fprintf(stderr, "genax_client: %s\n",
                     endpoint.status().str().c_str());
        return kExitUsage;
    }

    auto parsed = readFastqFile(reads_path, ReaderOptions{});
    if (!parsed.ok()) {
        std::fprintf(stderr, "genax_client: %s\n",
                     parsed.status().str().c_str());
        return kExitError;
    }
    const std::vector<FastqRecord> reads = std::move(parsed).value();
    if (reads.empty()) {
        std::fprintf(stderr, "genax_client: %s has no reads\n",
                     reads_path.c_str());
        return kExitError;
    }
    const auto requests = sliceRequests(reads, per_request);

    if (clients == 0) {
        // Single-client mode: round-trip everything, then write.
        if (tenant.empty())
            tenant = "client";
        auto conn = ServeClient::connect(*endpoint, tenant, timeout);
        if (!conn.ok()) {
            std::fprintf(stderr, "genax_client: %s\n",
                         conn.status().str().c_str());
            return kExitError;
        }
        std::string sam = conn->samHeader();
        for (const auto &req : requests) {
            auto lines = conn->align(req);
            if (!lines.ok()) {
                std::fprintf(stderr, "genax_client: %s\n",
                             lines.status().str().c_str());
                return kExitError; // nothing written: no partial SAM
            }
            for (const auto &line : *lines)
                sam += line;
        }
        if (want_stats) {
            auto text = conn->stats();
            if (text.ok())
                std::fprintf(stderr, "%s", text->c_str());
        }
        conn.value().close();
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr,
                         "genax_client: cannot open %s\n",
                         out_path.c_str());
            return kExitError;
        }
        out.write(sam.data(),
                  static_cast<std::streamsize>(sam.size()));
        out.flush();
        if (!out) {
            std::fprintf(stderr,
                         "genax_client: failed writing %s\n",
                         out_path.c_str());
            return kExitError;
        }
        std::fprintf(stderr,
                     "genax_client: %llu reads in %zu requests -> "
                     "%s\n",
                     static_cast<unsigned long long>(reads.size()),
                     requests.size(), out_path.c_str());
        return kExitOk;
    }

    // Load-generator mode: N clients, each `repeat` requests
    // cycling through the request slices.
    struct WorkerResult
    {
        LatencyHistogram latency;
        u64 reads = 0;
        u64 errors = 0;
        std::string firstError;
    };
    std::vector<WorkerResult> results(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const auto t0 = std::chrono::steady_clock::now();
    for (u64 c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            WorkerResult &res = results[c];
            const std::string name =
                tenant.empty() ? "loadgen-" + std::to_string(c)
                               : tenant;
            auto conn =
                ServeClient::connect(*endpoint, name, timeout);
            if (!conn.ok()) {
                ++res.errors;
                res.firstError = conn.status().str();
                return;
            }
            for (u64 r = 0; r < repeat; ++r) {
                const auto &req = requests[r % requests.size()];
                const auto s =
                    std::chrono::steady_clock::now();
                auto lines = conn->align(req);
                const auto e =
                    std::chrono::steady_clock::now();
                if (!lines.ok()) {
                    ++res.errors;
                    if (res.firstError.empty())
                        res.firstError = lines.status().str();
                    continue;
                }
                res.latency.recordNanos(static_cast<u64>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(e - s)
                        .count()));
                res.reads += req.size();
            }
            conn.value().close();
        });
    }
    for (auto &t : threads)
        t.join();
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(t1 - t0).count();

    LatencyHistogram latency;
    u64 total_reads = 0, total_errors = 0;
    std::string first_error;
    for (const auto &res : results) {
        latency.merge(res.latency);
        total_reads += res.reads;
        total_errors += res.errors;
        if (first_error.empty() && !res.firstError.empty())
            first_error = res.firstError;
    }
    const double reads_per_s =
        seconds > 0 ? static_cast<double>(total_reads) / seconds
                    : 0.0;
    std::printf(
        "clients=%llu requests=%llu reads=%llu errors=%llu "
        "seconds=%.3f reads_per_s=%.1f p50_ms=%.3f p99_ms=%.3f "
        "max_ms=%.3f\n",
        static_cast<unsigned long long>(clients),
        static_cast<unsigned long long>(latency.count()),
        static_cast<unsigned long long>(total_reads),
        static_cast<unsigned long long>(total_errors), seconds,
        reads_per_s, latency.quantileSeconds(0.5) * 1e3,
        latency.quantileSeconds(0.99) * 1e3,
        latency.maxSeconds() * 1e3);
    if (total_errors > 0)
        std::fprintf(stderr, "genax_client: first error: %s\n",
                     first_error.c_str());
    if (want_stats) {
        auto conn =
            ServeClient::connect(*endpoint, "loadgen-stats", timeout);
        if (conn.ok()) {
            auto text = conn->stats();
            if (text.ok())
                std::fprintf(stderr, "%s", text->c_str());
        }
    }
    return total_errors == 0 ? kExitOk : kExitError;
}
