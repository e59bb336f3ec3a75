/**
 * @file
 * Seeded SillaX extension jobs, built the way GenAxSystem builds them:
 * a readsim reference and read set, SmemEngine seeding over a
 * FlatKmerIndex, makeAnchors, and makeExtendWindows at the lane's
 * margin (the edit bound). Exact whole-read matches are skipped, as
 * the system skips them.
 *
 * Shared by test_model_equiv (event-vs-naive pins on the real job
 * distribution) and bench/micro_silla (per-job simulation cost), so
 * both see the mix of clean, gapped, hopeless (best score <= 0) and
 * region-saturating jobs the pipeline actually issues, rather than a
 * fixed edit count.
 */

#ifndef GENAX_TESTS_EXTENSION_JOBS_HH
#define GENAX_TESTS_EXTENSION_JOBS_HH

#include <vector>

#include "genax/system.hh"
#include "readsim/readsim.hh"
#include "readsim/refgen.hh"
#include "seed/seed_index.hh"
#include "seed/smem_engine.hh"
#include "swbase/anchor.hh"

namespace genax::testing {

/** One anchored extension problem: reference window and query. */
struct ExtensionJob
{
    Seq ref;
    Seq qry;
};

/** The perfbench workloads' reference and read models. */
enum class JobWorkload
{
    PaperShort,       //!< 5% repeats, readsim default errors
    DivergentRepeats, //!< 30% repeats, 2% subs, 0.1% indels, 0.5% SNPs
};

/**
 * Up to `max_jobs` extension jobs in issue order (read, strand,
 * anchor, right before left). A pure function of its arguments.
 */
inline std::vector<ExtensionJob>
makeExtensionJobs(JobWorkload workload, u64 seed, size_t max_jobs)
{
    const GenAxConfig gx;
    RefGenConfig rcfg;
    rcfg.length = 400'000;
    rcfg.seed = seed * 2 + 1;
    ReadSimConfig rs;
    rs.numReads = 4 * max_jobs;
    rs.seed = seed * 2 + 2;
    if (workload == JobWorkload::DivergentRepeats) {
        rcfg.repeatFraction = 0.30;
        rs.baseErrorRate = 0.02;
        rs.readIndelRate = 0.001;
        rs.snpRate = 0.005;
    } else {
        rcfg.repeatFraction = 0.05;
    }
    const Seq ref = generateReference(rcfg);
    const SeedIndex index(ref, gx.k);
    SmemEngine engine(index, gx.seeding);

    std::vector<ExtensionJob> jobs;
    auto add = [&](const PackedSeq &window, const Seq &qry) {
        if (jobs.size() == max_jobs)
            return;
        ExtensionJob job;
        window.unpackInto(job.ref);
        job.qry = qry;
        jobs.push_back(std::move(job));
    };
    for (const SimRead &read : simulateReads(ref, rs)) {
        for (const bool reverse : {false, true}) {
            const Seq oriented =
                reverse ? reverseComplement(read.seq) : read.seq;
            const auto smems = engine.seed(oriented);
            if (smems.size() == 1 && smems[0].qryBegin == 0 &&
                smems[0].qryEnd == oriented.size())
                continue; // exact whole-read match: no extension
            for (const Anchor &anchor :
                 makeAnchors(smems, 0, reverse, gx.anchors)) {
                const ExtendWindows win = makeExtendWindows(
                    ref, oriented, anchor, gx.editBound);
                if (win.hasRight)
                    add(win.right, win.rightQry);
                if (win.hasLeft)
                    add(win.left, win.leftQry);
            }
        }
        if (jobs.size() == max_jobs)
            break;
    }
    return jobs;
}

} // namespace genax::testing

#endif // GENAX_TESTS_EXTENSION_JOBS_HH
