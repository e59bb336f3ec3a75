#include "serve/protocol.hh"

#include "io/store.hh"

namespace genax {

namespace {

/** Little-endian append of a POD integer. */
template <typename T>
void
putInt(std::string &out, T v)
{
    for (size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Bounds-checked little-endian read; advances `off`. */
template <typename T>
Status
getInt(std::string_view in, size_t &off, T &out)
{
    if (off > in.size() || in.size() - off < sizeof(T))
        return invalidInputError("truncated frame payload");
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(static_cast<u8>(in[off + i])) << (8 * i);
    off += sizeof(T);
    out = v;
    return okStatus();
}

/** Length-prefixed (u32) byte string. */
void
putBytes(std::string &out, std::string_view bytes)
{
    putInt<u32>(out, static_cast<u32>(bytes.size()));
    out.append(bytes.data(), bytes.size());
}

Status
getBytes(std::string_view in, size_t &off, std::string &out)
{
    u32 len = 0;
    GENAX_TRY(getInt<u32>(in, off, len));
    if (in.size() - off < len)
        return invalidInputError("truncated frame payload");
    out.assign(in.data() + off, len);
    off += len;
    return okStatus();
}

/** Checksum over the header's first 24 bytes (everything before
 *  headerChecksum itself). */
u64
headerDigest(const FrameHeader &hdr)
{
    return storeChecksum(&hdr,
                         offsetof(FrameHeader, headerChecksum));
}

} // namespace

const char *
frameTypeName(FrameType t)
{
    switch (t) {
    case FrameType::Hello:
        return "hello";
    case FrameType::HelloAck:
        return "hello-ack";
    case FrameType::AlignRequest:
        return "align-request";
    case FrameType::AlignResponse:
        return "align-response";
    case FrameType::Error:
        return "error";
    case FrameType::StatsRequest:
        return "stats-request";
    case FrameType::StatsReply:
        return "stats-reply";
    }
    return "unknown";
}

std::string
encodeFrame(FrameType type, std::string_view payload)
{
    FrameHeader hdr{};
    std::memcpy(hdr.magic, kFrameMagic, sizeof(hdr.magic));
    hdr.version = kProtocolVersion;
    hdr.type = static_cast<u16>(type);
    hdr.payloadBytes = payload.size();
    hdr.payloadChecksum = storeChecksum(payload.data(), payload.size());
    hdr.headerChecksum = headerDigest(hdr);

    std::string out;
    out.reserve(sizeof(hdr) + payload.size());
    out.append(reinterpret_cast<const char *>(&hdr), sizeof(hdr));
    out.append(payload.data(), payload.size());
    return out;
}

StatusOr<FrameHeader>
decodeFrameHeader(const void *bytes)
{
    FrameHeader hdr;
    std::memcpy(&hdr, bytes, sizeof(hdr));
    if (std::memcmp(hdr.magic, kFrameMagic, sizeof(hdr.magic)) != 0)
        return invalidInputError("bad frame magic (not a genax_serve "
                                 "stream, or the stream lost sync)");
    if (hdr.headerChecksum != headerDigest(hdr))
        return invalidInputError("frame header checksum mismatch");
    if (hdr.version != kProtocolVersion)
        return invalidInputError(
            "unsupported protocol version " +
            std::to_string(hdr.version) + " (this build speaks " +
            std::to_string(kProtocolVersion) + ")");
    if (hdr.payloadBytes > kMaxFramePayload)
        return invalidInputError(
            "frame payload claims " +
            std::to_string(hdr.payloadBytes) +
            " bytes, beyond the protocol maximum");
    return hdr;
}

Status
validateFramePayload(const FrameHeader &hdr, std::string_view payload)
{
    if (payload.size() != hdr.payloadBytes)
        return internalError("frame payload length mismatch");
    if (storeChecksum(payload.data(), payload.size()) !=
        hdr.payloadChecksum)
        return invalidInputError("frame payload checksum mismatch");
    return okStatus();
}

std::string
encodeAlignRequest(const std::vector<FastqRecord> &reads)
{
    std::string out;
    putInt<u32>(out, static_cast<u32>(reads.size()));
    for (const auto &r : reads) {
        putBytes(out, r.name);
        putBytes(out,
                 std::string_view(
                     reinterpret_cast<const char *>(r.seq.data()),
                     r.seq.size()));
        putBytes(out,
                 std::string_view(
                     reinterpret_cast<const char *>(r.qual.data()),
                     r.qual.size()));
    }
    return out;
}

StatusOr<std::vector<FastqRecord>>
decodeAlignRequest(std::string_view payload)
{
    size_t off = 0;
    u32 count = 0;
    GENAX_TRY(getInt<u32>(payload, off, count));
    // Each read takes at least its three length prefixes, so a count
    // the payload cannot hold is damage, not an allocation request.
    if (count > (payload.size() - off) / (3 * sizeof(u32)))
        return invalidInputError("align request count beyond payload");
    std::vector<FastqRecord> reads;
    reads.reserve(count);
    for (u32 i = 0; i < count; ++i) {
        FastqRecord rec;
        GENAX_TRY(getBytes(payload, off, rec.name));
        std::string seq, qual;
        GENAX_TRY(getBytes(payload, off, seq));
        GENAX_TRY(getBytes(payload, off, qual));
        rec.seq.assign(seq.begin(), seq.end());
        for (u8 code : rec.seq) {
            if (code > 3)
                return invalidInputError(
                    "align request carries a non-2-bit base code");
        }
        rec.qual.assign(qual.begin(), qual.end());
        reads.push_back(std::move(rec));
    }
    if (off != payload.size())
        return invalidInputError("align request has trailing bytes");
    return reads;
}

std::string
encodeAlignResponse(const std::vector<std::string> &samLines)
{
    std::string out;
    putInt<u32>(out, static_cast<u32>(samLines.size()));
    for (const auto &line : samLines)
        putBytes(out, line);
    return out;
}

StatusOr<std::vector<std::string>>
decodeAlignResponse(std::string_view payload)
{
    size_t off = 0;
    u32 count = 0;
    GENAX_TRY(getInt<u32>(payload, off, count));
    // Each line takes at least its length prefix.
    if (count > (payload.size() - off) / sizeof(u32))
        return invalidInputError("align response count beyond payload");
    std::vector<std::string> lines;
    lines.reserve(count);
    for (u32 i = 0; i < count; ++i) {
        std::string line;
        GENAX_TRY(getBytes(payload, off, line));
        lines.push_back(std::move(line));
    }
    if (off != payload.size())
        return invalidInputError("align response has trailing bytes");
    return lines;
}

std::string
encodeError(const Status &s)
{
    std::string out;
    putInt<u32>(out, static_cast<u32>(s.code()));
    putBytes(out, s.message());
    return out;
}

Status
decodeError(std::string_view payload, Status &out)
{
    size_t off = 0;
    u32 code = 0;
    GENAX_TRY(getInt<u32>(payload, off, code));
    std::string message;
    GENAX_TRY(getBytes(payload, off, message));
    if (code == 0 || code > static_cast<u32>(StatusCode::EndOfStream))
        return invalidInputError("error frame carries a bad status "
                                 "code");
    out = Status(static_cast<StatusCode>(code), std::move(message));
    return okStatus();
}

} // namespace genax
