/**
 * @file
 * genax_index — offline index snapshot construction and inspection.
 *
 *   genax_index --ref ref.fa --out index.gxs [--k 12]
 *               [--segments 8] [--overlap 256]
 *   genax_index --verify FILE
 *
 * Builds the k-mer tables offline (the offline step of Section V)
 * into a crash-safe "GXSNAP" store: the concatenated reference, the
 * contig map, the segmentation and one flat whole-reference index,
 * all checksummed and written atomically — genax_align --index and
 * genax_serve --index mmap it and build no index, on either engine.
 *
 * `--verify` opens any store container, replays the full checksum
 * walk and prints a section report; it is the CI chaos harness's
 * corruption detector.
 *
 * Exit codes: 0 on success, 1 when the index was built but malformed
 * reference records had to be skipped, 2 on a usage error, 3 on an
 * unrecoverable error (including a corrupt --verify target).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "flags.hh"
#include "genax/pipeline.hh"
#include "io/store.hh"
#include "seed/index_snapshot.hh"
#include "seed/segment.hh"

using namespace genax;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitPartial = 1;
constexpr int kExitUsage = 2;
constexpr int kExitError = 3;

void
printHelp(const char *prog, std::FILE *to)
{
    std::fprintf(
        to,
        "usage: %s --ref ref.fa --out index.gxs [--k 12]\n"
        "          [--segments 8] [--overlap 256]\n"
        "       %s --verify FILE\n"
        "\n"
        "Build the checksummed whole-reference index snapshot that\n"
        "genax_align --index attaches, or verify an existing on-disk\n"
        "store.\n"
        "\n"
        "options:\n"
        "  --ref FILE       reference FASTA (required unless "
        "--verify)\n"
        "  --out FILE       output snapshot (required unless "
        "--verify)\n"
        "  --k K            k-mer length, 1..13 (default 12)\n"
        "  --segments N     genome segments, 1..100000 (default 8)\n"
        "  --overlap N      segment overlap in bases, at most 2^31\n"
        "                   (default 256)\n"
        "  --verify FILE    open FILE as a store container, replay\n"
        "                   every checksum and print a section\n"
        "                   report; exit 3 if it fails validation\n"
        "  -h, --help       show this help and exit\n"
        "\n"
        "exit codes: 0 success; 1 malformed reference records were\n"
        "skipped; 2 usage error; 3 unrecoverable error\n",
        prog, prog);
}

[[noreturn]] void
usageError(const char *prog, const char *msg)
{
    std::fprintf(stderr, "%s: %s\n", prog, msg);
    printHelp(prog, stderr);
    std::exit(kExitUsage);
}

/** --verify: open any store kind, print the section table. The open
 *  itself replays header/table/section checksums, so reaching the
 *  report means the file is bit-for-bit intact. */
int
verifyStore(const std::string &path)
{
    auto store = StoreFile::open(path, /*expect_kind=*/"",
                                 /*prefer_mmap=*/true);
    if (!store.ok()) {
        std::fprintf(stderr, "genax_index: verify failed: %s\n",
                     store.status().str().c_str());
        return kExitError;
    }
    std::printf("%s: OK\n", path.c_str());
    std::printf("  kind %.*s v%u (container v%u), %llu bytes, %s\n",
                static_cast<int>(store->kind().size()),
                store->kind().data(), store->kindVersion(),
                store->version(),
                static_cast<unsigned long long>(store->fileBytes()),
                store->mapped() ? "mmap" : "owned read");
    std::printf("  %zu section%s:\n", store->sections().size(),
                store->sections().size() == 1 ? "" : "s");
    for (const auto &s : store->sections())
        std::printf("    %-16s offset %8llu  %10llu bytes  "
                    "checksum %016llx\n",
                    s.name.c_str(),
                    static_cast<unsigned long long>(s.offset),
                    static_cast<unsigned long long>(s.bytes),
                    static_cast<unsigned long long>(s.checksum));
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string ref_path, out_path, verify_path;
    u32 k = 12;
    u64 segments = 8;
    u64 overlap = 256;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError(argv[0],
                           ("missing value for " + arg).c_str());
            return argv[++i];
        };
        auto number = [&](u64 lo, u64 hi) {
            const auto v = parseFlagValue<u64>(arg, next(), lo, hi);
            if (!v.ok())
                usageError(argv[0], v.status().message().c_str());
            return *v;
        };
        if (arg == "--ref") {
            ref_path = next();
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--k") {
            k = static_cast<u32>(number(1, kMaxFlagK));
        } else if (arg == "--segments") {
            segments = number(1, kMaxFlagSegments);
        } else if (arg == "--overlap") {
            overlap = number(0, u64{1} << 31);
        } else if (arg == "--verify") {
            verify_path = next();
        } else if (arg == "--help" || arg == "-h") {
            printHelp(argv[0], stdout);
            return kExitOk;
        } else {
            usageError(argv[0], ("unknown option: " + arg).c_str());
        }
    }
    if (!verify_path.empty())
        return verifyStore(verify_path);
    if (ref_path.empty() || out_path.empty())
        usageError(argv[0], "--ref and --out are required");

    ReaderStats ref_stats;
    const auto ref = readFastaFile(ref_path, {}, &ref_stats);
    if (!ref.ok()) {
        std::fprintf(stderr, "genax_index: %s\n",
                     ref.status().str().c_str());
        return kExitError;
    }
    if (ref->empty()) {
        std::fprintf(stderr,
                     "genax_index: reference has no usable contigs\n");
        return kExitError;
    }
    if (ref_stats.malformed > 0)
        std::fprintf(stderr,
                     "reference: skipped %llu malformed record%s\n",
                     static_cast<unsigned long long>(
                         ref_stats.malformed),
                     ref_stats.malformed == 1 ? "" : "s");

    const ContigMap contigs(*ref);
    std::vector<SnapshotContig> snap_contigs;
    snap_contigs.reserve(contigs.contigs().size());
    for (const auto &c : contigs.contigs())
        snap_contigs.push_back({c.name, c.start, c.length});
    SegmentConfig cfg;
    cfg.k = k;
    cfg.segmentCount = segments;
    cfg.overlap = overlap;
    if (const Status st = IndexSnapshot::build(
            out_path, contigs.sequence(), snap_contigs, cfg);
        !st.ok()) {
        std::fprintf(stderr, "genax_index: %s\n", st.str().c_str());
        return kExitError;
    }
    // The stored count: segments that would start past the end of the
    // reference are dropped.
    const u64 stored = GenomeSegments(contigs.sequence(), cfg).count();
    std::fprintf(stderr,
                 "snapshot: %llu bp, k=%u, %llu segment%s "
                 "(overlap %llu) -> %s\n",
                 static_cast<unsigned long long>(
                     contigs.sequence().size()),
                 k, static_cast<unsigned long long>(stored),
                 stored == 1 ? "" : "s",
                 static_cast<unsigned long long>(overlap),
                 out_path.c_str());
    return ref_stats.malformed > 0 ? kExitPartial : kExitOk;
}
