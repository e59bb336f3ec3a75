#include "serve/service.hh"

#include <utility>

namespace genax {

AlignService::AlignService(std::unique_ptr<AlignEngine> engine)
    : _engine(std::move(engine)),
      _sam(_stage, _engine->contigs().samHeader()),
      _header(_stage.str())
{
    _stage.str(std::string());
}

StatusOr<std::unique_ptr<AlignService>>
AlignService::create(const std::vector<FastaRecord> &ref,
                     const ServiceConfig &cfg)
{
    GENAX_TRY_ASSIGN(auto engine, AlignEngine::create(ref, cfg));
    engine->begin();
    // No make_unique: the constructor is private.
    return std::unique_ptr<AlignService>(
        new AlignService(std::move(engine)));
}

AlignService::~AlignService()
{
    finish();
}

BatchOutcome
AlignService::alignBatch(const std::vector<FastqRecord> &reads)
{
    BatchOutcome out;
    if (reads.empty())
        return out;

    std::vector<Seq> seqs;
    seqs.reserve(reads.size());
    for (const auto &r : reads)
        seqs.push_back(r.seq);
    const AlignEngine::Batch aligned = _engine->batch(seqs);

    out.samLines.reserve(reads.size());
    out.outcomes.reserve(reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        const Mapping &m = aligned.maps[i];
        if (!m.mapped) {
            ++out.unmapped;
            out.outcomes.push_back(BatchOutcome::kUnmapped);
        } else if (aligned.degraded[i]) {
            ++out.degraded;
            out.outcomes.push_back(BatchOutcome::kDegraded);
        } else {
            ++out.mapped;
            out.outcomes.push_back(BatchOutcome::kMapped);
        }
        _sam.write(pipelineSamRecord(_engine->contigs(), reads[i], m));
        // One record is exactly one line: take the staged text
        // (newline included) as this read's response.
        out.samLines.push_back(_stage.str());
        _stage.str(std::string());
    }
    return out;
}

void
AlignService::finish()
{
    _engine->end();
}

} // namespace genax
