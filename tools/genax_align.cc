/**
 * @file
 * genax_align — command-line read aligner.
 *
 *   genax_align --ref ref.fa --reads reads.fq --out out.sam
 *               [--reads2 mates.fq] [--engine genax|sw] [--k 12]
 *               [--band 40] [--segments 8] [--threads 1]
 *               [--batch-reads N] [--index snapshot.gxs]
 *               [--kernel auto|scalar|sse41|avx2]
 *               [--max-malformed N] [--inject SPEC]
 *
 * Aligns FASTQ reads against a FASTA reference and writes SAM, using
 * either the GenAx accelerator model (default; also prints the
 * hardware performance report) or the BWA-MEM-like software
 * baseline.
 *
 * Exit codes: 0 on full success, 1 when the run completed but some
 * reads were skipped, degraded or failed (see the ledger on stderr),
 * 2 on a usage error, 3 on an unrecoverable error.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "align/simd/dispatch.hh"
#include "flags.hh"
#include "genax/pipeline.hh"

using namespace genax;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitPartial = 1;
constexpr int kExitError = 3;

void
printHelp(const char *prog, std::FILE *to)
{
    std::fprintf(
        to,
        "usage: %s --ref ref.fa --reads reads.fq --out out.sam\n"
        "          [options]\n"
        "\n"
        "Align FASTQ reads against a FASTA reference and write SAM.\n"
        "\n"
        "options:\n"
        "  --ref FILE         reference FASTA (required)\n"
        "  --reads FILE       reads FASTQ (required)\n"
        "  --reads2 FILE      mate FASTQ; enables paired-end mode\n"
        "  --out FILE         output SAM (required)\n"
        "  --engine genax|sw  accelerator model or software baseline\n"
        "                     (default genax)\n"
        "  --k K              seeding k-mer length, 1..13 (default 12)\n"
        "  --band K           edit bound / extension band, 1..8192\n"
        "                     (default 40); beyond the SillaX maximum\n"
        "                     the run degrades to the software engine\n"
        "  --segments N       GenAx genome segments, 1..100000\n"
        "                     (default 8)\n"
        "  --threads N        worker threads for either engine and\n"
        "                     its index build (default 1; 0 = all\n"
        "                     hardware threads); output is identical\n"
        "                     at any width\n"
        "  --batch-reads N    stream reads (read pairs with --reads2)\n"
        "                     through the engine in batches of N,\n"
        "                     overlapping parse, align and SAM\n"
        "                     emission with O(batch) memory (default\n"
        "                     0 = all reads as one batch); output is\n"
        "                     identical at any batch size\n"
        "  --index FILE       prebuilt index snapshot from genax_index;\n"
        "                     either engine mmaps it zero-copy and\n"
        "                     builds no index. The snapshot's k/segments/\n"
        "                     overlap override the flags above. A\n"
        "                     corrupt snapshot degrades to rebuild-\n"
        "                     from-FASTA (exit 1); one built from a\n"
        "                     different reference is a hard error\n"
        "                     (exit 3)\n"
        "  --kernel TIER      force the alignment-kernel dispatch\n"
        "                     tier: auto (default), scalar, sse41 or\n"
        "                     avx2; all tiers produce identical\n"
        "                     output (GENAX_FORCE_SCALAR=1 in the\n"
        "                     environment pins scalar too)\n"
        "  --max-malformed N  malformed input records tolerated per\n"
        "                     file before the run fails (default 1000)\n"
        "  --inject SPEC      arm fault-injection sites, e.g.\n"
        "                     'io.fastq.record:p=0.01,seed=7;"
        "sillax.lane.issue:n=3'\n"
        "                     (GENAX_FAULT_INJECT in the environment\n"
        "                     works too)\n"
        "  -h, --help         show this help and exit\n"
        "\n"
        "exit codes: 0 success; 1 completed with skipped, degraded or\n"
        "failed reads; 2 usage error; 3 unrecoverable error\n",
        prog);
}

void
printParseTrouble(const char *label, const ReaderStats &stats)
{
    if (stats.malformed == 0)
        return;
    std::fprintf(stderr,
                 "%s: skipped %llu malformed record%s\n", label,
                 static_cast<unsigned long long>(stats.malformed),
                 stats.malformed == 1 ? "" : "s");
    for (const auto &e : stats.errors)
        std::fprintf(stderr, "  line %llu: %s\n",
                     static_cast<unsigned long long>(e.line),
                     e.message.c_str());
    if (stats.errors.size() < stats.malformed)
        std::fprintf(stderr, "  ... and %llu more\n",
                     static_cast<unsigned long long>(
                         stats.malformed - stats.errors.size()));
}

} // namespace

int
main(int argc, char **argv)
{
    std::string ref, reads, reads2, out, inject;
    PipelineOptions opts;

    FlagParser flags(argc, argv, printHelp);
    while (flags.next()) {
        const std::string &arg = flags.arg();
        if (arg == "--ref") {
            ref = flags.value();
        } else if (arg == "--reads") {
            reads = flags.value();
        } else if (arg == "--reads2") {
            reads2 = flags.value();
        } else if (arg == "--out") {
            out = flags.value();
        } else if (arg == "--batch-reads") {
            opts.batchReads = flags.number(0, UINT64_MAX);
        } else if (arg == "--kernel") {
            const std::string tier = flags.value();
            if (const Status st = simd::setKernelTierByName(tier);
                !st.ok())
                flags.usageError("--kernel " + tier + ": " + st.str());
        } else if (arg == "--max-malformed") {
            opts.maxMalformed = flags.number(0, UINT64_MAX);
        } else if (arg == "--inject") {
            inject = flags.value();
        } else if (arg == "--help" || arg == "-h") {
            printHelp(argv[0], stdout);
            return kExitOk;
        } else if (!flags.engineFlag(opts)) {
            flags.usageError("unknown option: " + arg);
        }
    }
    if (ref.empty() || reads.empty() || out.empty())
        flags.usageError("--ref, --reads and --out are required");
    if (!armFaultInjection(inject))
        return kExitUsage;

    const auto result =
        reads2.empty() ? alignFiles(ref, reads, out, opts)
                       : alignPairFiles(ref, reads, reads2, out, opts);
    if (!result.ok()) {
        std::fprintf(stderr, "genax_align: %s\n",
                     result.status().str().c_str());
        return kExitError;
    }
    const PipelineResult &res = *result;

    printParseTrouble("reference", res.refInput);
    printParseTrouble("reads", res.readInput);
    if (res.softwareFallback)
        std::fprintf(stderr,
                     "note: run degraded to the software engine\n");
    if (!res.indexNote.empty())
        std::fprintf(stderr, "note: %s\n", res.indexNote.c_str());
    std::fprintf(
        stderr,
        "aligned %llu reads in %.3f s -> %s\n"
        "ledger: %llu mapped, %llu unmapped, %llu skipped-malformed, "
        "%llu degraded, %llu failed\n",
        static_cast<unsigned long long>(res.reads), res.seconds,
        out.c_str(), static_cast<unsigned long long>(res.mapped),
        static_cast<unsigned long long>(res.unmapped),
        static_cast<unsigned long long>(res.skippedMalformed),
        static_cast<unsigned long long>(res.degraded),
        static_cast<unsigned long long>(res.failed));
    if (opts.engine == PipelineOptions::Engine::GenAx &&
        !res.softwareFallback) {
        std::fprintf(stderr,
                     "GenAx model: %llu exact-path reads, %llu "
                     "extension jobs, modelled %.1f KReads/s\n",
                     static_cast<unsigned long long>(
                         res.perf.exactReads),
                     static_cast<unsigned long long>(
                         res.perf.extensionJobs),
                     res.perf.readsPerSecond() / 1e3);
        if (res.perf.laneFaults || res.perf.dramFaults)
            std::fprintf(
                stderr,
                "faults absorbed: %llu lane issues, %llu DRAM "
                "streams\n",
                static_cast<unsigned long long>(res.perf.laneFaults),
                static_cast<unsigned long long>(res.perf.dramFaults));
    }

    const bool partial = res.skippedMalformed > 0 || res.degraded > 0 ||
                         res.failed > 0 || res.softwareFallback ||
                         res.indexFallback;
    return partial ? kExitPartial : kExitOk;
}
