/**
 * @file
 * Traced run: every layer timed from outside, by calling its public
 * functions in the engines' own order, with a span around each call.
 *
 *  - io: FASTQ parse, snapshot build and open, SAM formatting/write;
 *  - software engine (BwaMemLike::alignAll's three phases): per read,
 *    SmemEngine::seed then makeAnchors/makeExtendWindows per strand;
 *    one cross-read simd::scoreCandidateBatch per batch; then winner
 *    selection and extendWithScoreHint traceback per read. The replay
 *    must reproduce alignAll's mappings exactly;
 *  - GenAx: GenAxSystem::streamBegin/streamBatch/streamEnd with the
 *    host profile, and a replay of its seeding (over the snapshot's
 *    segment views) and of its SillaXLane::extend jobs, whose count
 *    and cycles must equal the system's own;
 *  - serving: the daemon stack at the light and heavy rates, with one
 *    request id shared by all spans of a request.
 *
 * Layer times are span self times. The spans are written as Chrome
 * trace-event JSON when the run ends. Tracing overhead is the traced
 * software replay's time minus alignAll's untraced time on the same
 * reads.
 */

#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>

#include "align/simd/batch_score.hh"
#include "align/simd/dispatch.hh"
#include "common/threadpool.hh"
#include "perfbench.hh"
#include "seed/index_snapshot.hh"
#include "sillax/lane.hh"
#include "swbase/bwamem_like.hh"

using namespace genax;

namespace perfbench {

namespace {

/** One software candidate: BwaMemLike's unit of the score-all,
 *  traceback-the-winner split. */
struct Candidate
{
    Anchor anchor;
    ExtendWindows win;
    BandedExtendScore left, right;
    i32 score = 0;
    u64 pos = 0;
};

/** Winner selection, traceback and MAPQ — the fold BwaMemLike applies
 *  to one read's scored candidates. */
Mapping
selectAndFinish(const std::vector<Candidate> &cands, const Scoring &sc,
                u64 read_len)
{
    i64 best = -1;
    i32 second = INT32_MIN;
    for (u32 i = 0; i < cands.size(); ++i) {
        if (best < 0) {
            best = i;
            continue;
        }
        const Candidate &c = cands[i];
        const Candidate &b = cands[static_cast<size_t>(best)];
        const bool better =
            c.score > b.score ||
            (c.score == b.score &&
             ((b.anchor.reverse && !c.anchor.reverse) ||
              (b.anchor.reverse == c.anchor.reverse && c.pos < b.pos)));
        if (better) {
            second = std::max(second, b.score);
            best = i;
        } else {
            second = std::max(second, c.score);
        }
    }
    if (best < 0)
        return Mapping{};
    const Candidate &w = cands[static_cast<size_t>(best)];
    ExtensionResult right, left;
    if (w.win.hasRight)
        right = extendWithScoreHint(w.win.right, w.win.rightQry, sc, kBand,
                                    w.right);
    if (w.win.hasLeft)
        left = extendWithScoreHint(w.win.left, w.win.leftQry, sc, kBand,
                                   w.left);
    Mapping m = composeAnchorMapping(w.anchor, sc, read_len, left, right);
    if (cands.size() <= 1)
        m.mapq = 60;
    else if (second >= m.score)
        m.mapq = 0;
    else
        m.mapq = static_cast<u8>(std::min<i32>(60, 6 * (m.score - second)));
    return m;
}

bool
sameMapping(const Mapping &a, const Mapping &b)
{
    return a.mapped == b.mapped && a.reverse == b.reverse &&
           a.pos == b.pos && a.score == b.score && a.mapq == b.mapq &&
           a.cigar == b.cigar;
}

/** Sum of the durations of every span called `name`. */
double
total(const std::map<std::string, double> &self, const char *name)
{
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double
timed(const std::function<void()> &fn)
{
    const auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

struct SoftwareReplay
{
    std::vector<Mapping> maps;
    u64 smems = 0, lookups = 0, anchors = 0, jobs = 0, winners = 0;
    u64 cells = 0;
    double seconds = 0.0;
};

/** BwaMemLike::alignAll's phases, one read or batch at a time. */
SoftwareReplay
replaySoftware(Tracer &tr, const BwaMemLike &aligner, const Seq &ref,
               const std::vector<Seq> &reads)
{
    SoftwareReplay out;
    const AlignerConfig &cfg = aligner.config();
    SmemEngine engine(aligner.index(), cfg.seeding);
    const auto t0 = Clock::now();
    for (size_t lo = 0; lo < reads.size(); lo += kBatchReads) {
        const size_t hi = std::min<size_t>(reads.size(), lo + kBatchReads);
        SpanScope batch(tr, "swbase.batch", 0, lo / kBatchReads + 1);
        std::vector<std::vector<Candidate>> cands(hi - lo);
        for (size_t r = lo; r < hi; ++r) {
            for (bool reverse : {false, true}) {
                const Seq oriented =
                    reverse ? reverseComplement(reads[r]) : reads[r];
                std::vector<Smem> smems;
                {
                    SpanScope s(tr, "seed.smem", batch.id());
                    smems = engine.seed(oriented);
                }
                SpanScope s(tr, "swbase.candidates", batch.id());
                const auto anchors =
                    makeAnchors(smems, 0, reverse, cfg.anchors);
                out.anchors += anchors.size();
                for (const Anchor &a : anchors) {
                    Candidate c;
                    c.anchor = a;
                    c.win = makeExtendWindows(ref, oriented, a, cfg.band);
                    cands[r - lo].push_back(std::move(c));
                }
            }
        }

        std::vector<simd::ExtendJob> jobs;
        std::vector<BandedExtendScore *> slots;
        for (auto &rc : cands)
            for (Candidate &c : rc) {
                if (c.win.hasRight) {
                    jobs.push_back({&c.win.right, &c.win.rightQry});
                    slots.push_back(&c.right);
                }
                if (c.win.hasLeft) {
                    jobs.push_back({&c.win.left, &c.win.leftQry});
                    slots.push_back(&c.left);
                }
            }
        for (const auto &j : jobs)
            out.cells += j.qry->size() * (2 * u64{cfg.band} + 1);
        out.jobs += jobs.size();
        std::vector<BandedExtendScore> scores;
        {
            SpanScope s(tr, "align.score", batch.id());
            scores = simd::scoreCandidateBatch(jobs, cfg.scoring, cfg.band);
        }
        for (size_t j = 0; j < jobs.size(); ++j)
            *slots[j] = scores[j];

        SpanScope s(tr, "swbase.traceback", batch.id());
        for (size_t r = lo; r < hi; ++r) {
            auto &rc = cands[r - lo];
            for (Candidate &c : rc) {
                c.score = static_cast<i32>(c.anchor.seedLen()) *
                              cfg.scoring.match +
                          c.left.score + c.right.score;
                c.pos = c.anchor.refPos - c.left.refEnd;
            }
            out.winners += !rc.empty();
            out.maps.push_back(
                selectAndFinish(rc, cfg.scoring, reads[r].size()));
        }
    }
    out.seconds = secondsSince(t0);
    out.smems = engine.stats().smems;
    out.lookups = engine.stats().indexLookups;
    return out;
}

struct GenAxReplay
{
    u64 jobs = 0;
    Cycle cycles = 0;
};

/** GenAxSystem's phases A and B per segment: seeding over the
 *  snapshot's segment view, then every anchor's extension jobs on a
 *  SillaX lane. Exact whole-read hits need no extension. */
GenAxReplay
replayGenAx(Tracer &tr, const IndexSnapshot &snap, const Seq &ref,
            const std::vector<Seq> &reads, const GenAxConfig &cfg)
{
    GenAxReplay out;
    std::vector<Seq> rev(reads.size());
    for (size_t r = 0; r < reads.size(); ++r)
        rev[r] = reverseComplement(reads[r]);
    SillaXLane lane(cfg.editBound, cfg.scoring, cfg.sillaxFreqGhz);
    Seq window;
    for (u64 seg = 0; seg < snap.segmentCount(); ++seg) {
        SpanScope segment(tr, "genax.replay_segment", 0, seg + 1);
        const FlatKmerIndex index = snap.segmentView(seg);
        SmemEngine engine(index, cfg.seeding);
        // (read, strand) → anchors of the strands that need extension.
        std::vector<std::pair<size_t, std::vector<Anchor>>> staged;
        {
            SpanScope s(tr, "seed.gx_smem", segment.id());
            for (size_t r = 0; r < reads.size(); ++r)
                for (int strand = 0; strand < 2; ++strand) {
                    const Seq &o = strand ? rev[r] : reads[r];
                    const auto smems = engine.seed(o);
                    if (smems.empty() ||
                        (smems.size() == 1 && smems[0].qryBegin == 0 &&
                         smems[0].qryEnd == o.size()))
                        continue;
                    staged.emplace_back(
                        2 * r + strand,
                        makeAnchors(smems, snap.segmentStart(seg),
                                    strand == 1, cfg.anchors));
                }
        }
        std::vector<ExtendWindows> wins;
        std::vector<const Seq *> qry_of;
        {
            SpanScope s(tr, "genax.windows", segment.id());
            for (const auto &[key, anchors] : staged) {
                const Seq &o = key % 2 ? rev[key / 2] : reads[key / 2];
                for (const Anchor &a : anchors)
                    wins.push_back(
                        makeExtendWindows(ref, o, a, cfg.editBound));
            }
        }
        SpanScope s(tr, "sillax.extend", segment.id());
        for (const ExtendWindows &w : wins) {
            if (w.hasRight) {
                w.right.unpackInto(window);
                lane.extend(window, w.rightQry);
            }
            if (w.hasLeft) {
                w.left.unpackInto(window);
                lane.extend(window, w.leftQry);
            }
        }
    }
    out.jobs = lane.stats().jobs;
    out.cycles = lane.stats().totalCycles();
    return out;
}

struct StreamRun
{
    std::vector<Mapping> maps;
    GenAxPerf perf;
    GenAxHostProfile profile;
    double seconds = 0.0;
};

/** GenAxSystem's streaming interface in 4096-read batches. */
StreamRun
streamGenAx(Tracer *tr, const Seq &ref, const std::vector<Seq> &reads,
            GenAxConfig cfg, unsigned threads)
{
    cfg.threads = threads;
    GenAxSystem system(ref, cfg);
    StreamRun out;
    const auto t0 = Clock::now();
    system.streamBegin();
    for (size_t lo = 0; lo < reads.size(); lo += kBatchReads) {
        const std::vector<Seq> batch(
            reads.begin() + static_cast<long>(lo),
            reads.begin() + static_cast<long>(std::min<size_t>(
                                reads.size(), lo + kBatchReads)));
        const u64 id = tr ? tr->open("genax.stream_batch") : 0;
        auto maps = system.streamBatch(batch, lo);
        if (tr)
            tr->close(id);
        out.maps.insert(out.maps.end(), maps.begin(), maps.end());
    }
    const u64 id = tr ? tr->open("genax.stream_end") : 0;
    system.streamEnd();
    if (tr)
        tr->close(id);
    out.seconds = secondsSince(t0);
    out.perf = system.perf();
    out.profile = system.hostProfile();
    return out;
}

} // namespace

int
runTraced(const Workload &w, const Inputs &in, double seconds, u64 seed,
          unsigned nproc, const std::string &trace_out)
{
    Tracer tr;
    std::vector<std::string> errors;
    auto check = [&](bool ok, const std::string &what) {
        if (!ok)
            errors.push_back(what);
    };
    u64 attempted = 0, failed = 0;
    const ContigMap contigs(in.fasta);
    const Seq &ref = contigs.sequence();

    // io: parse and snapshot.
    StatusOr<std::vector<FastqRecord>> parsed = std::vector<FastqRecord>{};
    {
        SpanScope s(tr, "io.fastq_parse");
        parsed = readFastqFile(in.readsPath);
    }
    check(parsed.ok() && parsed->size() == in.reads.size(),
          "FASTQ parse lost reads");
    // The replay covers the first two batches of reads.
    std::vector<Seq> reads;
    for (size_t i = 0; i < std::min<size_t>(in.reads.size(), 2 * kBatchReads);
         ++i)
        reads.push_back(in.reads[i].seq);
    {
        SpanScope s(tr, "io.snapshot_build");
        check(buildSnapshot(in).ok(), "snapshot build failed");
    }
    StatusOr<IndexAttachment> att = IndexAttachment{};
    {
        SpanScope s(tr, "io.snapshot_open");
        att = attachIndexSnapshot(in.snapPath, ref);
    }
    check(att.ok() && att->fromSnapshot, "snapshot attach failed");
    if (!errors.empty()) {
        for (const auto &e : errors)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         e.c_str());
        return 1;
    }

    // Software engine: replay at width 1, then alignAll untraced at
    // width 1 and nproc.
    AlignerConfig acfg;
    acfg.k = kK;
    acfg.band = kBand;
    acfg.threads = 1;
    std::optional<BwaMemLike> one;
    {
        SpanScope s(tr, "seed.index_build");
        one.emplace(ref, acfg);
    }
    const SoftwareReplay sw = replaySoftware(tr, *one, ref, reads);
    std::vector<Mapping> sw_maps;
    const double sw_t1 = timed([&] { sw_maps = one->alignAll(reads); });
    one.reset();
    acfg.threads = nproc;
    const BwaMemLike wide(ref, acfg);
    std::vector<Mapping> sw_wide;
    const double sw_tn = timed([&] { sw_wide = wide.alignAll(reads); });
    attempted += 3 * reads.size();
    u64 replay_diff = 0, wide_diff = 0;
    for (size_t i = 0; i < reads.size(); ++i) {
        replay_diff += !sameMapping(sw.maps[i], sw_maps[i]);
        wide_diff += !sameMapping(sw_wide[i], sw_maps[i]);
    }
    check(replay_diff == 0, "software replay differs from alignAll on " +
                                std::to_string(replay_diff) + " reads");
    check(wide_diff == 0, "alignAll differs between width 1 and " +
                              std::to_string(nproc));

    // io: SAM formatting and write of the software mappings; the lines
    // are the expected answers of the served requests.
    std::vector<std::string> lines;
    {
        SpanScope s(tr, "io.sam_write");
        std::ofstream f(in.dir + "/replay.sam", std::ios::binary);
        std::vector<SamRefSeq> refs;
        for (const auto &c : contigs.contigs())
            refs.push_back({c.name, c.length});
        SamWriter sam(f, refs);
        for (size_t i = 0; i < reads.size(); ++i)
            sam.write(pipelineSamRecord(contigs, in.reads[i], sw_maps[i]));
        check(f.flush().good(), "SAM write failed");
    }
    {
        std::ifstream f(in.dir + "/replay.sam", std::ios::binary);
        for (std::string l; std::getline(f, l);)
            if (!l.empty() && l[0] != '@')
                lines.push_back(l + "\n");
    }

    // GenAx: the streaming system at width 1 (traced) and nproc, then
    // the seeding and SillaX replay.
    GenAxConfig gcfg;
    gcfg.k = kK;
    gcfg.editBound = kBand;
    applyIndexAttachment(gcfg, *att);
    const StreamRun gx1 = streamGenAx(&tr, ref, reads, gcfg, 1);
    const StreamRun gxn = streamGenAx(nullptr, ref, reads, gcfg, nproc);
    attempted += 2 * reads.size();
    u64 gx_diff = 0;
    for (size_t i = 0; i < reads.size(); ++i)
        gx_diff += !sameMapping(gx1.maps[i], gxn.maps[i]);
    check(gx_diff == 0, "GenAx mappings differ between width 1 and " +
                            std::to_string(nproc));
    check(gx1.perf.extensionJobs == gxn.perf.extensionJobs &&
              gx1.perf.totalSeconds == gxn.perf.totalSeconds,
          "GenAx modelled counts differ between widths");
    const GenAxReplay lane =
        replayGenAx(tr, *att->snapshot, ref, reads, gcfg);
    check(lane.jobs == gx1.perf.extensionJobs &&
              lane.cycles == gx1.perf.lanes.totalCycles(),
          "SillaX replay: " + std::to_string(lane.jobs) + " jobs, system " +
              std::to_string(gx1.perf.extensionJobs));

    // Serving: light then heavy, each on a fresh stack so the batcher
    // statistics belong to one rate.
    struct Served
    {
        RatePoint point;
        Batcher::StatsSnapshot stats;
    };
    auto serve = [&](double rate, u64 s) {
        Served out;
        ServeStack stack;
        const double t0 = tr.now();
        const auto up = startServe(stack, in, nproc);
        if (up.ok())
            tr.add("serve.startup", t0, tr.now());
        check(up.ok(), "serve start-up failed");
        if (!up.ok())
            return out;
        out.point = runRatePoint(stack, in, lines, rate,
                                 kPointShare * seconds, s, &tr);
        out.stats = stack.batcher->stats();
        attempted += out.point.sent;
        failed += out.point.failed;
        check(out.point.mismatched == 0 && out.point.compared > 0,
              "served SAM differs from the offline SAM");
        return out;
    };
    const Served light = serve(w.lightRate, seed * 7 + 1);
    const Served heavy = serve(w.heavyRate, seed * 7 + 2);

    const auto spans = tr.spans();
    const auto self = selfSecondsByName(spans);
    // The daemon starts once per rate; the faster start-up counts.
    std::vector<double> startups;
    for (const Span &sp : spans)
        if (sp.name == "serve.startup")
            startups.push_back(sp.end - sp.start);
    const double n = static_cast<double>(reads.size());
    const double score_s = total(self, "align.score");
    auto ms = [](double s) { return s * 1e3; };
    auto batchReads = [](const Batcher::StatsSnapshot &st) {
        u64 r = 0;
        for (const auto &[name, t] : st.tenants)
            r += t.reads;
        return st.batches ? static_cast<double>(r) / st.batches : 0.0;
    };
    const std::vector<Metric> metrics = {
        {"io.fastq_parse_s", total(self, "io.fastq_parse"), "s"},
        {"io.sam_write_s", total(self, "io.sam_write"), "s"},
        {"io.snapshot_build_s", total(self, "io.snapshot_build"), "s"},
        {"io.snapshot_open_s", total(self, "io.snapshot_open"), "s"},
        {"seed.index_build_s", total(self, "seed.index_build"), "s"},
        {"seed.smem_s", total(self, "seed.smem"), "s"},
        {"seed.gx_smem_s", total(self, "seed.gx_smem"), "s"},
        {"seed.smems_per_read", sw.smems / n, "count"},
        {"seed.lookups_per_read", sw.lookups / n, "count"},
        {"swbase.candidates_s", total(self, "swbase.candidates"), "s"},
        {"swbase.traceback_s", total(self, "swbase.traceback"), "s"},
        {"swbase.anchors_per_read", sw.anchors / n, "count"},
        {"swbase.ext_jobs_per_read", sw.jobs / n, "count"},
        {"swbase.useful_frac",
         sw.anchors ? static_cast<double>(sw.winners) / sw.anchors : 0.0,
         "frac"},
        {"align.score_s", score_s, "s"},
        {"align.score_mcells", sw.cells / 1e6, "Mcell"},
        {"align.ns_per_cell", sw.cells ? score_s * 1e9 / sw.cells : 0.0,
         "ns"},
        {"genax.stream_batch_s", total(self, "genax.stream_batch"), "s"},
        {"genax.stream_end_s", total(self, "genax.stream_end"), "s"},
        {"genax.host_seed_s", gx1.profile.seedingSimSeconds, "s"},
        {"genax.host_ext_s", gx1.profile.extensionSeconds, "s"},
        {"genax.host_book_s", gx1.profile.bookkeepingSeconds, "s"},
        {"genax.exact_read_frac", gx1.perf.exactReads / n, "frac"},
        {"genax.ext_jobs_per_read", gx1.perf.extensionJobs / n, "count"},
        {"sillax.extend_s", total(self, "sillax.extend"), "s"},
        {"sillax.cycles_per_job", gx1.perf.lanes.cyclesPerJob(), "cycles"},
        {"common.sw_parallel_eff", sw_t1 / (nproc * sw_tn), "frac"},
        {"common.gx_parallel_eff", gx1.seconds / (nproc * gxn.seconds),
         "frac"},
        {"serve.startup_s", median(startups), "s"},
        {"serve.queue_wait_p50_ms",
         ms(light.stats.queueWait.quantileSeconds(0.5)), "ms"},
        {"serve.deadline_flush_frac",
         light.stats.batches ? static_cast<double>(
                                   light.stats.flushesByDeadline) /
                                   light.stats.batches
                             : 0.0,
         "frac"},
        // The batcher keeps histograms, whose means are exact but
        // whose percentiles are bucket interpolations, so socket time
        // is a difference of means.
        {"serve.socket_mean_ms",
         mean(light.point.roundTripMs) - ms(light.stats.total.meanSeconds()),
         "ms"},
        {"serve.engine_p50_ms", ms(heavy.stats.engine.quantileSeconds(0.5)),
         "ms"},
        {"serve.reads_per_batch", batchReads(heavy.stats), "count"},
        {"serve.light_p50_ms", light.point.p(0.5), "ms"},
        {"serve.light_p90_ms", light.point.p(0.9), "ms"},
        {"serve.light_p99_ms", light.point.p(0.99), "ms"},
        {"serve.heavy_p50_ms", heavy.point.p(0.5), "ms"},
        {"serve.heavy_p90_ms", heavy.point.p(0.9), "ms"},
        {"serve.heavy_p99_ms", heavy.point.p(0.99), "ms"},
        {"serve.gen_late_p99_ms", percentile(heavy.point.latenessMs, 0.99),
         "ms"},
    };

    const double sw_engine = total(self, "seed.smem") +
                             total(self, "swbase.candidates") + score_s +
                             total(self, "swbase.traceback");
    std::ostringstream f;
    f << "{\"facts\": {\"workload\": \"" << w.name << "\", \"seed\": "
      << seed << ", \"nproc\": " << nproc
      << ", \"width_offline\": " << ThreadPool::resolveWidth(nproc)
      << ", \"width_serve_engine\": " << ThreadPool::resolveWidth(1)
      << ", \"simd_tier\": \""
      << simd::kernelTierName(simd::activeKernelTier())
      << "\", \"replay_reads\": " << reads.size()
      << ", \"serve_light_samples\": " << light.point.latencyMs.size()
      << ", \"serve_heavy_samples\": " << heavy.point.latencyMs.size()
      << ", \"serve_light_p99_supported\": "
      << (percentileSupported(light.point.latencyMs.size(), 0.99) ? "true"
                                                                  : "false")
      << ", \"serve_heavy_p99_supported\": "
      << (percentileSupported(heavy.point.latencyMs.size(), 0.99) ? "true"
                                                                  : "false")
      << ", \"serve_light_backlog\": "
      << (light.point.backlog ? "true" : "false")
      << ", \"serve_heavy_backlog\": "
      << (heavy.point.backlog ? "true" : "false")
      << ", \"sw_engine_s\": " << sw_engine
      << ", \"seed_share\": " << total(self, "seed.smem") / sw_engine
      << ", \"score_traceback_share\": "
      << (score_s + total(self, "swbase.traceback")) / sw_engine
      << ", \"alignall_s\": " << sw_t1
      << ", \"tracing_overhead_s\": " << sw.seconds - sw_t1
      << ", \"spans\": " << spans.size() << "}}";
    check(trace_out.empty() || tr.writeChromeTrace(trace_out),
          "cannot write the trace");
    for (const auto &e : errors)
        std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    std::printf("%s\n", f.str().c_str());
    printResult(errors.empty(), attempted, failed, metrics);
    return errors.empty() ? 0 : 1;
}

} // namespace perfbench
