#include "io/fastq.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/faultinject.hh"

namespace genax {

FastqReader::FastqReader(std::istream &in, const ReaderOptions &opts)
    : _in(in), _opts(opts)
{
}

bool
FastqReader::fetchLine()
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

void
FastqReader::resync()
{
    while (fetchLine()) {
        if (!_line.empty() && _line[0] == '@') {
            _lineBuffered = true;
            return;
        }
    }
}

Status
FastqReader::recordMalformed(u64 line, std::string message)
{
    ++_stats.malformed;
    if (_stats.errors.size() < kMaxParseErrorsKept)
        _stats.errors.push_back({line, message});
    if (_stats.malformed > _opts.maxMalformed) {
        return invalidInputError(
            "FASTQ line " + std::to_string(line) + ": " + message +
            " (malformed-record budget " +
            std::to_string(_opts.maxMalformed) + " exhausted)");
    }
    return okStatus();
}

StatusOr<FastqRecord>
FastqReader::next()
{
    for (;;) {
        if (faultFires(fault::kFastqRecord)) {
            return ioError("injected fault at " +
                           std::string(fault::kFastqRecord) +
                           " near line " + std::to_string(_lineNo));
        }

        // Header line (blank lines between records are tolerated).
        std::string header;
        u64 header_line = 0;
        bool have_header = false;
        while (fetchLine()) {
            if (_line.empty())
                continue;
            header = _line;
            header_line = _lineNo;
            have_header = true;
            break;
        }
        if (_in.bad())
            return ioError("FASTQ stream read failure near line " +
                           std::to_string(_lineNo));
        if (!have_header)
            return endOfStream();

        if (header[0] != '@') {
            GENAX_TRY(recordMalformed(
                header_line, "expected '@' header, got: " + header));
            resync();
            continue;
        }

        // The three remaining record lines.
        std::string bases, plus, quals;
        bool complete = false;
        if (fetchLine()) {
            bases = _line;
            if (fetchLine()) {
                plus = _line;
                if (fetchLine()) {
                    quals = _line;
                    complete = true;
                }
            }
        }
        if (_in.bad())
            return ioError("FASTQ stream read failure near line " +
                           std::to_string(_lineNo));
        if (!complete) {
            GENAX_TRY(recordMalformed(header_line,
                                      "truncated record: " + header));
            return endOfStream();
        }

        std::string bad;
        if (plus.empty() || plus[0] != '+')
            bad = "expected '+' separator, got: " + plus;
        else if (bases.size() != quals.size())
            bad = "sequence/quality length mismatch (" +
                  std::to_string(bases.size()) + " vs " +
                  std::to_string(quals.size()) + ") in " + header;
        else if (bases.empty())
            bad = "record with empty sequence: " + header;
        if (bad.empty()) {
            for (const char c : bases) {
                if (!isIupac(c)) {
                    bad = "invalid character '" + std::string(1, c) +
                          "' in sequence of " + header;
                    break;
                }
            }
        }
        if (bad.empty()) {
            for (const char c : quals) {
                if (c < '!' || c > '~') {
                    bad = "quality character out of Phred+33 range in " +
                          header;
                    break;
                }
            }
        }

        FastqRecord rec;
        const size_t name_end = header.find_first_of(" \t", 1);
        rec.name = header.substr(1, name_end == std::string::npos
                                        ? std::string::npos
                                        : name_end - 1);
        if (bad.empty() && rec.name.empty())
            bad = "record with empty name";

        if (!bad.empty()) {
            GENAX_TRY(recordMalformed(header_line, std::move(bad)));
            // A bad separator usually means the 4-line framing
            // slipped; hunt for the next header. Other defects leave
            // the framing intact.
            if (plus.empty() || plus[0] != '+')
                resync();
            continue;
        }

        rec.seq = encode(bases);
        rec.qual.reserve(quals.size());
        for (const char c : quals)
            rec.qual.push_back(static_cast<u8>(c - 33));
        ++_stats.records;
        return rec;
    }
}

StatusOr<std::vector<FastqRecord>>
FastqReader::nextBatch(u64 max_records)
{
    std::vector<FastqRecord> out;
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

StatusOr<std::vector<FastqRecord>>
readFastq(std::istream &in, const ReaderOptions &opts,
          ReaderStats *stats)
{
    FastqReader reader(in, opts);
    std::vector<FastqRecord> out;
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

StatusOr<std::vector<FastqRecord>>
readFastqFile(const std::string &path, const ReaderOptions &opts,
              ReaderStats *stats)
{
    std::ifstream in(path);
    if (!in)
        return ioErrorFromErrno("cannot open FASTQ file", path);
    return readFastq(in, opts, stats)
        .withContext("FASTQ file '" + path + "'");
}

Status
writeFastq(std::ostream &out, const std::vector<FastqRecord> &recs)
{
    for (const auto &rec : recs) {
        if (faultFires(fault::kStoreEnospc)) [[unlikely]]
            out.setstate(std::ios::failbit);
        out << '@' << rec.name << '\n' << decode(rec.seq) << "\n+\n";
        for (u8 q : rec.qual)
            out << static_cast<char>(q + 33);
        out << '\n';
        if (!out)
            return ioError(
                "failed writing FASTQ record '" + rec.name +
                "' (device full or write error)");
    }
    out.flush();
    if (!out)
        return ioError("failed flushing FASTQ output");
    return okStatus();
}

} // namespace genax
