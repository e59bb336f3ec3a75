/**
 * @file
 * store_chaos — corruption- and crash-chaos harness for the on-disk
 * store layer, runnable standalone or from tools/store_chaos.sh.
 *
 *   store_chaos build <out.gxs> [seed]   build a deterministic
 *                                        reference snapshot
 *   store_chaos truncate <file>          cut at every section
 *                                        boundary (and off-by-ones);
 *                                        every cut must be rejected
 *   store_chaos bitflip <file> <n> <seed>
 *                                        n seeded single-bit flips;
 *                                        each must be rejected or
 *                                        provably benign (padding)
 *   store_chaos killsave <dir>           kill the process at every
 *                                        write boundary and around
 *                                        the rename while saving;
 *                                        the target must always be
 *                                        the old file or a fully
 *                                        valid new one
 *   store_chaos filterhole <file>        clear one present key's bit
 *                                        in a snapshot's presence
 *                                        filter and recompute every
 *                                        checksum; the snapshot must
 *                                        still be rejected
 *
 * The sweeps exercise the exact code paths genax_align trusts at
 * startup, so CI runs them under ASan+UBSan: any crash, hang or
 * accepted-but-corrupt store is a bug.
 *
 * Exit codes: 0 all invariants held, 1 an invariant was violated,
 * 2 usage error, 3 unrecoverable error (e.g. the input store is
 * already unreadable).
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "io/store.hh"
#include "seed/index_snapshot.hh"

using namespace genax;

namespace {

namespace fs = std::filesystem;

constexpr int kExitOk = 0;
constexpr int kExitViolation = 1;
constexpr int kExitUsage = 2;
constexpr int kExitError = 3;

int g_violations = 0;

void
violation(const std::string &what)
{
    std::fprintf(stderr, "store_chaos: INVARIANT VIOLATED: %s\n",
                 what.c_str());
    ++g_violations;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    return static_cast<bool>(out);
}

/** Deterministic synthetic reference snapshot: same seed, same
 *  bytes, so sweeps and re-execs agree on the expected content. */
int
cmdBuild(const std::string &out, u64 seed)
{
    Rng rng(seed);
    Seq ref;
    ref.reserve(6000);
    for (size_t i = 0; i < 6000; ++i)
        ref.push_back(static_cast<Base>(rng.below(4)));
    const std::vector<SnapshotContig> contigs = {
        {"chrA", 0, 4000}, {"chrB", 4000, 2000}};
    SegmentConfig cfg;
    cfg.k = 10;
    cfg.segmentCount = 3;
    cfg.overlap = 64;
    if (const Status st =
            IndexSnapshot::build(out, ref, contigs, cfg);
        !st.ok()) {
        std::fprintf(stderr, "store_chaos: build: %s\n",
                     st.str().c_str());
        return kExitError;
    }
    std::fprintf(stderr, "store_chaos: built %s (seed %llu)\n",
                 out.c_str(),
                 static_cast<unsigned long long>(seed));
    return kExitOk;
}

/** Validate one mutated byte-string: write it to `scratch`, try to
 *  open it both mapped and owned, and demand a typed rejection (or,
 *  when `allow_benign`, a store identical in section content). */
void
expectRejected(const std::string &scratch, const std::string &bytes,
               const std::string &what, bool allow_benign,
               const StoreFile *pristine)
{
    if (!spit(scratch, bytes)) {
        violation(what + ": cannot write scratch file");
        return;
    }
    for (const bool prefer_mmap : {true, false}) {
        auto r = StoreFile::open(scratch, "", prefer_mmap);
        if (!r.ok()) {
            if (r.status().code() != StatusCode::InvalidInput &&
                r.status().code() != StatusCode::IoError)
                violation(what + ": untyped rejection: " +
                          r.status().str());
            continue;
        }
        if (!allow_benign || pristine == nullptr) {
            violation(what + ": corrupt store was accepted");
            continue;
        }
        // Accepted: every section must be byte-identical to the
        // pristine store (the flip landed in alignment padding).
        bool same = r->sections().size() ==
                    pristine->sections().size();
        for (size_t i = 0; same && i < r->sections().size(); ++i) {
            const auto &a = r->sections()[i];
            const auto &b = pristine->sections()[i];
            same = a.name == b.name && a.bytes == b.bytes &&
                   a.checksum == b.checksum;
        }
        if (!same)
            violation(what +
                      ": accepted store differs from pristine");
    }
}

int
cmdTruncate(const std::string &path)
{
    const std::string pristine_bytes = slurp(path);
    auto pristine = StoreFile::open(path, "");
    if (!pristine.ok()) {
        std::fprintf(stderr,
                     "store_chaos: truncate: input store is not "
                     "valid: %s\n",
                     pristine.status().str().c_str());
        return kExitError;
    }

    std::vector<size_t> cuts = {0, 1, sizeof(StoreHeader) - 1,
                                sizeof(StoreHeader),
                                pristine_bytes.size() - 1};
    for (const auto &s : pristine->sections()) {
        for (const long d : {-1L, 0L, 1L}) {
            cuts.push_back(static_cast<size_t>(
                static_cast<long>(s.offset) + d));
            cuts.push_back(static_cast<size_t>(
                static_cast<long>(s.offset + s.bytes) + d));
        }
    }
    const std::string scratch = path + ".chaos_cut";
    size_t tried = 0;
    for (const size_t cut : cuts) {
        if (cut >= pristine_bytes.size())
            continue;
        ++tried;
        expectRejected(scratch, pristine_bytes.substr(0, cut),
                       "truncate at " + std::to_string(cut),
                       /*allow_benign=*/false, nullptr);
    }
    fs::remove(scratch);
    std::fprintf(stderr,
                 "store_chaos: truncate: %zu cuts, %d violations\n",
                 tried, g_violations);
    return g_violations ? kExitViolation : kExitOk;
}

int
cmdBitflip(const std::string &path, u64 flips, u64 seed)
{
    const std::string pristine_bytes = slurp(path);
    auto pristine = StoreFile::open(path, "");
    if (!pristine.ok()) {
        std::fprintf(stderr,
                     "store_chaos: bitflip: input store is not "
                     "valid: %s\n",
                     pristine.status().str().c_str());
        return kExitError;
    }

    // Deliberately NOT common/rng.hh: Rng is seeded through the
    // same splitmix64 mixer the store checksum folds words with, and
    // a corruption harness must not derive its attack pattern from
    // the mixer family it is attacking. The Mersenne stream is
    // structurally unrelated and just as deterministic per seed.
    // genax-lint: allow(raw-rng): chaos sweep needs an RNG structurally independent of the splitmix64-seeded Rng the checksum under test shares its mixer with
    std::mt19937_64 rng(seed);
    const std::string scratch = path + ".chaos_flip";
    for (u64 i = 0; i < flips; ++i) {
        const size_t off =
            static_cast<size_t>(rng() % pristine_bytes.size());
        const u8 bit = static_cast<u8>(1u << (rng() % 8));
        std::string mutant = pristine_bytes;
        mutant[off] = static_cast<char>(
            static_cast<u8>(mutant[off]) ^ bit);
        expectRejected(scratch, mutant,
                       "bitflip " + std::to_string(i) + " at " +
                           std::to_string(off),
                       /*allow_benign=*/true, &*pristine);
    }
    fs::remove(scratch);
    std::fprintf(
        stderr, "store_chaos: bitflip: %llu flips, %d violations\n",
        static_cast<unsigned long long>(flips), g_violations);
    return g_violations ? kExitViolation : kExitOk;
}

/** Re-exec this binary to `build` with a kill plan armed, then check
 *  the crash left the target either untouched or fully valid. */
int
cmdKillsave(const char *self, const std::string &dir)
{
    fs::create_directories(dir);
    const std::string target = (fs::path(dir) / "snap.gxs").string();

    // Committed "old generation" the crashes must never damage.
    if (const int rc = cmdBuild(target, /*seed=*/1); rc != kExitOk)
        return rc;
    const std::string old_bytes = slurp(target);

    // Kill plans: every write boundary (the child writes the "new"
    // generation with a different seed), then both rename edges.
    // Rename-edge plans go first: the write sweep ends with an
    // early break once a plan outlives the write count.
    std::vector<std::string> plans = {"pre-rename", "post-rename"};
    for (int n = 1; n <= 64; ++n)
        plans.push_back("write:" + std::to_string(n));

    size_t ran = 0;
    for (const std::string &plan : plans) {
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::perror("store_chaos: fork");
            return kExitError;
        }
        if (pid == 0) {
            ::setenv("GENAX_STORE_KILL_AT", plan.c_str(), 1);
            ::execl(self, self, "build", target.c_str(), "2",
                    static_cast<char *>(nullptr));
            std::perror("store_chaos: execl");
            _exit(kExitError); // only _exit is safe post-fork
        }
        int wstatus = 0;
        if (::waitpid(pid, &wstatus, 0) != pid) {
            std::perror("store_chaos: waitpid");
            return kExitError;
        }
        ++ran;
        const bool killed =
            WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 137;
        const bool clean =
            WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == kExitOk;
        if (!killed && !clean) {
            violation("killsave " + plan +
                      ": child neither died at the kill point nor "
                      "completed");
            continue;
        }

        // The crash invariant: old bytes intact, or a fully valid
        // (necessarily new) store.
        const std::string now = slurp(target);
        if (now != old_bytes) {
            auto reopened = StoreFile::open(target, "");
            if (!reopened.ok())
                violation("killsave " + plan +
                          ": target is neither the old file nor a "
                          "valid store: " +
                          reopened.status().str());
        }

        // Reset for the next plan: restore the old generation and
        // drop the crashed child's temp file.
        if (!spit(target, old_bytes)) {
            std::fprintf(stderr,
                         "store_chaos: cannot restore target\n");
            return kExitError;
        }
        for (const auto &e : fs::directory_iterator(dir)) {
            const std::string name = e.path().filename().string();
            if (name.find(".tmp.") != std::string::npos)
                fs::remove(e.path());
        }
        if (clean && plan.rfind("write:", 0) == 0)
            break; // the plan outlived the write count; sweep done
    }
    std::fprintf(stderr,
                 "store_chaos: killsave: %zu crash points, %d "
                 "violations\n",
                 ran, g_violations);
    return g_violations ? kExitViolation : kExitOk;
}

/** Clear one bit of one occupied key's presence-filter word in the
 *  snapshot's one filter (stored in slices "flt0", "flt1", ...),
 *  rewrite the store through StoreWriter so every section, table and
 *  header checksum matches again, and demand that IndexSnapshot::open
 *  rejects it — both mapped and owned — while the bare store still
 *  opens: only the filter walk can catch a filter that would hide a
 *  present key. */
int
cmdFilterhole(const std::string &path)
{
    auto snap = IndexSnapshot::open(path);
    auto store = StoreFile::open(path, "");
    if (!snap.ok() || !store.ok()) {
        std::fprintf(stderr,
                     "store_chaos: filterhole: input snapshot is not "
                     "valid: %s\n",
                     (snap.ok() ? store.status() : snap.status())
                         .str()
                         .c_str());
        return kExitError;
    }
    const FlatKmerIndex index = snap->index();
    u64 key = FlatKmerIndex::kEmptyKey;
    for (const FlatKmerIndex::Entry &e : index.tableSpan()) {
        if (e.key != FlatKmerIndex::kEmptyKey) {
            key = e.key;
            break;
        }
    }
    if (key == FlatKmerIndex::kEmptyKey) {
        std::fprintf(stderr, "store_chaos: filterhole: the index holds "
                             "no key\n");
        return kExitError;
    }
    const auto probe =
        FlatKmerIndex::filterProbe(key, index.filterSpan().size());
    const u64 bit = probe.bits & (~probe.bits + 1); // lowest of them

    StoreWriter w(store->kind(), store->kindVersion());
    std::vector<std::string> payloads;
    payloads.reserve(store->sections().size());
    u64 at = 8 * probe.word; // the word's offset past the slices seen
    for (const StoreFile::Section &s : store->sections()) {
        const auto raw = store->section(s.name);
        payloads.emplace_back(raw->begin(), raw->end());
        if (s.name.starts_with("flt") && at < s.bytes) {
            u64 word;
            std::memcpy(&word, &payloads.back()[at], 8);
            word &= ~bit;
            std::memcpy(&payloads.back()[at], &word, 8);
            at = ~u64{0}; // done: no later slice holds it
        } else if (s.name.starts_with("flt")) {
            at -= s.bytes;
        }
        w.addSection(s.name, payloads.back().data(),
                     payloads.back().size());
    }
    const std::string scratch = path + ".chaos_hole";
    if (const Status st = w.writeFile(scratch); !st.ok()) {
        std::fprintf(stderr, "store_chaos: filterhole: %s\n",
                     st.str().c_str());
        return kExitError;
    }
    if (!StoreFile::open(scratch, "").ok())
        violation("filterhole: the rewritten checksums do not match");
    for (const bool prefer_mmap : {true, false}) {
        auto r = IndexSnapshot::open(scratch, prefer_mmap);
        if (r.ok())
            violation("filterhole: a filter missing key " +
                      std::to_string(key) + " was accepted");
        else if (r.status().code() != StatusCode::InvalidInput)
            violation("filterhole: untyped rejection: " +
                      r.status().str());
    }
    fs::remove(scratch);
    std::fprintf(stderr, "store_chaos: filterhole: key %llu, %d "
                         "violations\n",
                 static_cast<unsigned long long>(key), g_violations);
    return g_violations ? kExitViolation : kExitOk;
}

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: store_chaos build <out.gxs> [seed]\n"
        "       store_chaos truncate <file>\n"
        "       store_chaos bitflip <file> <n> <seed>\n"
        "       store_chaos killsave <dir>\n"
        "       store_chaos filterhole <file>\n"
        "\n"
        "exit codes: 0 all invariants held; 1 violation; 2 usage;\n"
        "3 unrecoverable error\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(stderr);
        return kExitUsage;
    }
    const std::string cmd = argv[1];
    if (cmd == "-h" || cmd == "--help") {
        usage(stdout);
        return kExitOk;
    }
    if (cmd == "build" && (argc == 3 || argc == 4))
        return cmdBuild(argv[2],
                        argc == 4
                            ? static_cast<u64>(std::atoll(argv[3]))
                            : 1);
    if (cmd == "truncate" && argc == 3)
        return cmdTruncate(argv[2]);
    if (cmd == "bitflip" && argc == 5)
        return cmdBitflip(argv[2],
                          static_cast<u64>(std::atoll(argv[3])),
                          static_cast<u64>(std::atoll(argv[4])));
    if (cmd == "killsave" && argc == 3)
        return cmdKillsave(argv[0], argv[2]);
    if (cmd == "filterhole" && argc == 3)
        return cmdFilterhole(argv[2]);
    usage(stderr);
    return kExitUsage;
}
