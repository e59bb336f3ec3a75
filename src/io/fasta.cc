#include "io/fasta.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/faultinject.hh"
#include "common/logging.hh"

namespace genax {

FastaReader::FastaReader(std::istream &in, const ReaderOptions &opts)
    : _in(in), _opts(opts)
{
}

bool
FastaReader::fetchLine()
{
    if (_lineBuffered) {
        _lineBuffered = false;
        return true;
    }
    if (!std::getline(_in, _line))
        return false;
    ++_lineNo;
    if (!_line.empty() && _line.back() == '\r')
        _line.pop_back();
    return true;
}

Status
FastaReader::recordMalformed(u64 line, std::string message)
{
    ++_stats.malformed;
    if (_stats.errors.size() < kMaxParseErrorsKept)
        _stats.errors.push_back({line, message});
    if (_stats.malformed > _opts.maxMalformed) {
        return invalidInputError(
            "FASTA line " + std::to_string(line) + ": " + message +
            " (malformed-record budget " +
            std::to_string(_opts.maxMalformed) + " exhausted)");
    }
    return okStatus();
}

StatusOr<FastaRecord>
FastaReader::next()
{
    for (;;) {
        if (faultFires(fault::kFastaRecord)) {
            return ioError("injected fault at " +
                           std::string(fault::kFastaRecord) +
                           " near line " + std::to_string(_lineNo));
        }

        // Locate the next header, diagnosing stray data on the way.
        std::string bad;
        u64 bad_line = 0;
        bool have_header = false;
        u64 header_line = 0;
        while (fetchLine()) {
            if (_line.empty())
                continue;
            if (_line[0] == '>') {
                have_header = true;
                header_line = _lineNo;
                break;
            }
            if (bad.empty()) {
                bad = "sequence data before first header";
                bad_line = _lineNo;
            }
        }
        if (_in.bad())
            return ioError("FASTA stream read failure near line " +
                           std::to_string(_lineNo));
        if (!have_header) {
            if (!bad.empty())
                GENAX_TRY(recordMalformed(bad_line, std::move(bad)));
            return endOfStream();
        }
        if (!bad.empty()) {
            // The stray run is one malformed pseudo-record; the
            // header we just found still starts a fresh record.
            GENAX_TRY(recordMalformed(bad_line, std::move(bad)));
            bad.clear();
        }

        // Name is the first whitespace-delimited token.
        const size_t name_end = _line.find_first_of(" \t", 1);
        FastaRecord rec;
        rec.name = _line.substr(1, name_end == std::string::npos
                                       ? std::string::npos
                                       : name_end - 1);
        if (rec.name.empty()) {
            bad = "record with empty name";
            bad_line = header_line;
        }

        // Collect sequence lines until the next header or EOF.
        while (fetchLine()) {
            if (_line.empty())
                continue;
            if (_line[0] == '>') {
                _lineBuffered = true;
                break;
            }
            for (const char c : _line) {
                if (bad.empty() && !isIupac(c)) {
                    bad = "invalid character '" + std::string(1, c) +
                          "' in sequence of '" + rec.name + "'";
                    bad_line = _lineNo;
                }
                if (bad.empty())
                    rec.seq.push_back(charToBase(c));
            }
        }
        if (_in.bad())
            return ioError("FASTA stream read failure near line " +
                           std::to_string(_lineNo));

        if (bad.empty() && rec.seq.empty()) {
            bad = "record '" + rec.name + "' with empty sequence";
            bad_line = header_line;
        }
        // A duplicate name would silently corrupt ContigMap
        // coordinates.
        if (bad.empty() && !_seenNames.insert(rec.name).second) {
            bad = "duplicate record name '" + rec.name + "'";
            bad_line = header_line;
        }
        if (!bad.empty()) {
            GENAX_TRY(recordMalformed(bad_line, std::move(bad)));
            continue; // skip this record, try the next one
        }
        ++_stats.records;
        return rec;
    }
}

StatusOr<std::vector<FastaRecord>>
FastaReader::nextBatch(u64 max_records)
{
    std::vector<FastaRecord> out;
    out.reserve(static_cast<size_t>(std::min<u64>(max_records, 4096)));
    while (out.size() < max_records) {
        auto rec = next();
        if (!rec.ok()) {
            if (isEndOfStream(rec.status()))
                break;
            return rec.status();
        }
        out.push_back(std::move(rec).value());
    }
    return out;
}

StatusOr<std::vector<FastaRecord>>
readFasta(std::istream &in, const ReaderOptions &opts,
          ReaderStats *stats)
{
    FastaReader reader(in, opts);
    std::vector<FastaRecord> out;
    for (;;) {
        auto rec = reader.next();
        if (!rec.ok()) {
            if (stats)
                *stats = reader.stats();
            if (isEndOfStream(rec.status()))
                break;
            return rec.status();
        }
        out.push_back(std::move(rec).value());
    }
    return out;
}

StatusOr<std::vector<FastaRecord>>
readFastaFile(const std::string &path, const ReaderOptions &opts,
              ReaderStats *stats)
{
    std::ifstream in(path);
    if (!in)
        return ioErrorFromErrno("cannot open FASTA file", path);
    return readFasta(in, opts, stats)
        .withContext("FASTA file '" + path + "'");
}

Status
writeFasta(std::ostream &out, const std::vector<FastaRecord> &recs,
           size_t line_width)
{
    GENAX_ASSERT(line_width > 0, "FASTA line width must be positive");
    for (const auto &rec : recs) {
        if (faultFires(fault::kStoreEnospc)) [[unlikely]]
            out.setstate(std::ios::failbit);
        out << '>' << rec.name << '\n';
        for (size_t i = 0; i < rec.seq.size(); i += line_width) {
            const size_t n = std::min(line_width, rec.seq.size() - i);
            for (size_t j = 0; j < n; ++j)
                out << baseToChar(rec.seq[i + j]);
            out << '\n';
        }
        if (!out)
            return ioError(
                "failed writing FASTA record '" + rec.name +
                "' (device full or write error)");
    }
    out.flush();
    if (!out)
        return ioError("failed flushing FASTA output");
    return okStatus();
}

} // namespace genax
