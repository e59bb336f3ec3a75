/**
 * @file
 * Shared vocabulary of the streaming sequence readers: per-reader
 * options, parse-error records and skip/recovery accounting.
 *
 * The readers (FastaReader, FastqReader) implement the repository's
 * "degrade, don't die" policy at the input boundary: a malformed
 * record is skipped and counted — up to a configurable budget —
 * instead of killing a production run, while genuine environment
 * failures (unreadable stream, injected IO fault) surface as Status
 * errors the caller must handle.
 */

#ifndef GENAX_IO_READER_HH
#define GENAX_IO_READER_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace genax {

/** Options shared by the streaming FASTA/FASTQ readers. */
struct ReaderOptions
{
    /**
     * Malformed records to skip-and-count before the reader gives up
     * with InvalidInput. 0 = strict: the first malformed record is an
     * error. Production pipelines raise this (PipelineOptions).
     */
    u64 maxMalformed = 0;
};

/** Parse errors retained in ReaderStats::errors (all are counted,
 *  only the first few kept, so a rotten file cannot OOM us). */
constexpr u64 kMaxParseErrorsKept = 16;

/** One diagnosed input problem. */
struct ParseError
{
    u64 line = 0; //!< 1-based line number of the offending record
    std::string message;
};

/** Accumulated reader accounting. */
struct ReaderStats
{
    u64 records = 0;   //!< well-formed records returned
    u64 malformed = 0; //!< malformed records skipped
    std::vector<ParseError> errors; //!< first kMaxParseErrorsKept diagnoses
};

} // namespace genax

#endif // GENAX_IO_READER_HH
