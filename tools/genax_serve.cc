/**
 * @file
 * genax_serve — load-once alignment daemon.
 *
 *   genax_serve --ref ref.fa --listen unix:/tmp/genax.sock
 *               [--index snapshot.gxs] [--engine genax|sw] [--k 12]
 *               [--band 40] [--segments 8] [--threads 1]
 *               [--batch-reads 64] [--batch-wait-ms 2]
 *               [--queue-reads 4096] [--reject-when-full]
 *               [--max-malformed N] [--inject SPEC]
 *
 * Loads the reference (and, with --index, mmaps the prebuilt index
 * snapshot zero-copy) exactly once, then serves concurrent clients
 * over a Unix-domain or TCP socket. Requests from all clients
 * aggregate into cross-client engine batches (a batch flushes when
 * it fills or when its oldest request has waited --batch-wait-ms),
 * so the amortized cost per request is alignment, not startup.
 *
 * Snapshot semantics match genax_align --index: a corrupt or missing
 * snapshot degrades to rebuild-from-FASTA (the daemon still starts,
 * noting the fallback); a snapshot built from a different reference
 * is a hard startup error.
 *
 * On SIGINT/SIGTERM the daemon stops accepting, fails pending
 * requests with clean Error frames, closes the engine stream and
 * prints the serving ledger (per-tenant counts and queue/engine/total
 * latency histograms) to stderr.
 *
 * Exit codes: 0 clean shutdown; 2 usage error; 3 startup failure.
 */

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "flags.hh"
#include "io/reader.hh"
#include "serve/server.hh"

using namespace genax;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 3;

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
printHelp(const char *prog, std::FILE *to)
{
    std::fprintf(
        to,
        "usage: %s --ref ref.fa --listen ENDPOINT [options]\n"
        "\n"
        "Long-lived alignment daemon: loads the reference (and index\n"
        "snapshot) once and serves concurrent clients with\n"
        "cross-client dynamic batching.\n"
        "\n"
        "options:\n"
        "  --ref FILE          reference FASTA (required)\n"
        "  --listen ENDPOINT   unix:PATH, tcp:PORT or tcp:HOST:PORT\n"
        "                      (required; tcp:0 picks a free port,\n"
        "                      printed on the readiness line)\n"
        "  --index FILE        prebuilt index snapshot (mmap\n"
        "                      zero-copy; corrupt -> rebuild\n"
        "                      fallback, wrong reference -> error)\n"
        "  --engine genax|sw   accelerator model or software\n"
        "                      baseline (default genax)\n"
        "  --k K               seeding k-mer length, 1..13\n"
        "                      (default 12)\n"
        "  --band K            edit bound, 1..8192 (default 40)\n"
        "  --segments N        GenAx genome segments, 1..100000\n"
        "                      (default 8)\n"
        "  --threads N         engine worker threads (default 1;\n"
        "                      0 = all hardware threads)\n"
        "  --batch-reads N     flush a batch at N pending reads\n"
        "                      (default 64)\n"
        "  --batch-wait-ms MS  flush when the oldest request waited\n"
        "                      MS milliseconds (default 2)\n"
        "  --queue-reads N     admission bound on queued reads\n"
        "                      (default 4096)\n"
        "  --reject-when-full  shed requests with a clean error\n"
        "                      frame instead of blocking producers\n"
        "  --max-malformed N   malformed reference records tolerated\n"
        "                      (default 1000)\n"
        "  --inject SPEC       arm fault-injection sites (also\n"
        "                      GENAX_FAULT_INJECT in the environment)\n"
        "  -h, --help          show this help and exit\n"
        "\n"
        "The daemon prints 'genax_serve: listening on ENDPOINT' to\n"
        "stdout once it accepts connections, and a serving ledger to\n"
        "stderr on shutdown (SIGINT/SIGTERM).\n"
        "\n"
        "exit codes: 0 clean shutdown; 2 usage error; 3 startup "
        "failure\n",
        prog);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string ref, listen, inject;
    ServiceConfig cfg;
    BatcherConfig bcfg;
    u64 max_malformed = 1000;

    FlagParser flags(argc, argv, printHelp);
    while (flags.next()) {
        const std::string &arg = flags.arg();
        if (arg == "--ref") {
            ref = flags.value();
        } else if (arg == "--listen") {
            listen = flags.value();
        } else if (arg == "--batch-reads") {
            bcfg.batchReads = flags.number(1, UINT64_MAX);
        } else if (arg == "--batch-wait-ms") {
            bcfg.batchWaitSeconds = flags.number<double>(0.0) / 1e3;
        } else if (arg == "--queue-reads") {
            bcfg.queueReads = flags.number(0, UINT64_MAX);
        } else if (arg == "--reject-when-full") {
            bcfg.rejectWhenFull = true;
        } else if (arg == "--max-malformed") {
            max_malformed = flags.number(0, UINT64_MAX);
        } else if (arg == "--inject") {
            inject = flags.value();
        } else if (arg == "--help" || arg == "-h") {
            printHelp(argv[0], stdout);
            return kExitOk;
        } else if (!flags.engineFlag(cfg)) {
            flags.usageError("unknown option: " + arg);
        }
    }
    if (ref.empty() || listen.empty())
        flags.usageError("--ref and --listen are required");
    if (!armFaultInjection(inject))
        return kExitUsage;

    const auto endpoint = Endpoint::parse(listen);
    if (!endpoint.ok()) {
        std::fprintf(stderr, "genax_serve: %s\n",
                     endpoint.status().str().c_str());
        return kExitUsage;
    }

    // Load once: everything below this point is paid exactly one
    // time per daemon lifetime, never per request. The parsed FASTA
    // lives only until the engine holds its concatenated copy.
    ReaderOptions ropts;
    ropts.maxMalformed = max_malformed;
    auto service = [&]() -> StatusOr<std::unique_ptr<AlignService>> {
        GENAX_TRY_ASSIGN(const auto contigs, readFastaFile(ref, ropts));
        return AlignService::create(contigs, cfg);
    }();
    if (!service.ok()) {
        std::fprintf(stderr, "genax_serve: %s\n",
                     service.status().str().c_str());
        return kExitError;
    }
    AlignService &svc = **service;
    if (!svc.indexAttachment().note.empty())
        std::fprintf(stderr, "note: %s\n",
                     svc.indexAttachment().note.c_str());
    if (svc.softwareFallback())
        std::fprintf(stderr,
                     "note: serving on the software engine\n");

    Batcher batcher(svc, bcfg);
    Server server(svc, batcher);
    if (const Status st = server.start(*endpoint); !st.ok()) {
        std::fprintf(stderr, "genax_serve: %s\n", st.str().c_str());
        return kExitError;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    // Readiness line: smoke tests and load generators wait for it.
    std::printf("genax_serve: listening on %s\n",
                server.boundEndpoint().str().c_str());
    std::fflush(stdout);

    while (!g_stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::fprintf(stderr, "genax_serve: shutting down\n");
    server.stop();
    svc.finish();

    const auto snap = batcher.stats();
    std::fprintf(stderr,
                 "served %llu connections, %llu reads\n%s",
                 static_cast<unsigned long long>(
                     server.connectionsServed()),
                 static_cast<unsigned long long>(svc.readsServed()),
                 Batcher::statsText(snap).c_str());
    return kExitOk;
}
