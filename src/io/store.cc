#include "io/store.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "common/check.hh"
#include "common/faultinject.hh"
#include "common/threadpool.hh"

// The on-disk format is little-endian POD aliased in place; a
// big-endian port would need byte-swapping loads, not just a
// recompile.
static_assert(std::endian::native == std::endian::little,
              "the store layer assumes a little-endian host");

namespace genax {

// ------------------------------------------------------------------
// Checksum

void
StoreChecksum::update(const void *data, size_t bytes)
{
    const u8 *p = static_cast<const u8 *>(data);
    _len += bytes;
    // Finish a partial trailing word from the previous update.
    while (bytes > 0 && _pendingBytes > 0) {
        _pending |= static_cast<u64>(*p++) << (8 * _pendingBytes);
        --bytes;
        if (++_pendingBytes == 8) {
            _h = mix(_h ^ _pending);
            _pending = 0;
            _pendingBytes = 0;
        }
    }
    while (bytes >= 8) {
        u64 w;
        std::memcpy(&w, p, 8);
        _h = mix(_h ^ w);
        p += 8;
        bytes -= 8;
    }
    while (bytes > 0) {
        _pending |= static_cast<u64>(*p++) << (8 * _pendingBytes);
        ++_pendingBytes;
        --bytes;
    }
}

u64
StoreChecksum::digest() const
{
    u64 h = _h;
    if (_pendingBytes > 0)
        h = mix(h ^ _pending);
    // Folding the length in keeps zero-padding and truncation to a
    // word boundary from colliding with the unpadded input.
    return mix(h ^ _len);
}

u64
storeChecksum(const void *data, size_t bytes)
{
    StoreChecksum c;
    c.update(data, bytes);
    return c.digest();
}

// ------------------------------------------------------------------
// Kill-during-save test hook

namespace {

/** Crash plan for the store_chaos kill-during-save sweep. The
 *  variable is only ever set by the harness's forked children; a
 *  production process never sees it. */
struct KillPlan
{
    i64 afterWrites = -1; //!< die mid-way through the Nth ::write
    bool preRename = false;
    bool postRename = false;
};

const KillPlan &
killPlan()
{
    static const KillPlan plan = [] {
        KillPlan p;
        // genax-lint: allow(wall-clock): GENAX_STORE_KILL_AT is the store_chaos crash hook, read once and never set in production
        const char *env = std::getenv("GENAX_STORE_KILL_AT");
        if (env == nullptr)
            return p;
        const std::string_view v(env);
        if (v == "pre-rename")
            p.preRename = true;
        else if (v == "post-rename")
            p.postRename = true;
        else if (v.rfind("write:", 0) == 0)
            p.afterWrites = std::atoll(env + 6);
        return p;
    }();
    return plan;
}

std::atomic<i64> g_writeCalls{0};

/** Die abruptly mid-write when the crash plan says so: half the
 *  chunk reaches the kernel, then the process vanishes without
 *  unwinding — the torn-write crash the atomic protocol must make
 *  unobservable. */
void
maybeKillOnWrite(int fd, const u8 *p, size_t chunk)
{
    if (killPlan().afterWrites < 0) [[likely]]
        return;
    const i64 n =
        g_writeCalls.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n == killPlan().afterWrites) {
        if (chunk > 1) {
            // genax-lint: allow(unchecked-write): deliberate torn write immediately before _exit in the crash-sweep hook
            (void)::write(fd, p, chunk / 2);
        }
        _exit(137);
    }
}

/** Each ::write call moves at most this much, so the kill sweep gets
 *  a dense set of crash points even for few large sections. */
constexpr size_t kWriteChunk = size_t{256} * 1024;

u64
alignUp(u64 v)
{
    return (v + (kStoreAlign - 1)) & ~(kStoreAlign - 1);
}

/** storeChecksum of every section, on every core and largest first
 *  so no big section starts last: the writer's and open()'s one walk. */
std::vector<u64>
sectionChecksums(const std::vector<std::span<const u8>> &sections)
{
    const u64 n = sections.size();
    std::vector<u64> order(n);
    std::iota(order.begin(), order.end(), u64{0});
    std::stable_sort(order.begin(), order.end(), [&](u64 x, u64 y) {
        return sections[x].size() > sections[y].size();
    });
    std::vector<u64> sums(n);
    parallelFor(n, 0, [&](unsigned, u64 lo, u64 hi) {
        for (u64 j = lo; j < hi; ++j) {
            const auto &s = sections[order[j]];
            sums[order[j]] = storeChecksum(s.data(), s.size());
        }
    });
    return sums;
}

StatusOr<std::vector<u8>>
readWholeFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return ioErrorFromErrno("cannot open file", path);
    struct ::stat sb;
    if (::fstat(fd, &sb) != 0) {
        Status st = ioErrorFromErrno("fstat failed", path);
        ::close(fd);
        return st;
    }
    std::vector<u8> out(static_cast<size_t>(sb.st_size));
    size_t got = 0;
    while (got < out.size()) {
        const ssize_t n =
            ::read(fd, out.data() + got, out.size() - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            Status st = ioErrorFromErrno("read failed", path);
            ::close(fd);
            return st;
        }
        if (n == 0)
            break; // raced a truncation; header checks will reject
        got += static_cast<size_t>(n);
    }
    out.resize(got);
    ::close(fd);
    return out;
}

} // namespace

// ------------------------------------------------------------------
// AtomicFileWriter

AtomicFileWriter::~AtomicFileWriter() { abandon(); }

AtomicFileWriter::AtomicFileWriter(AtomicFileWriter &&other) noexcept
    : _path(std::move(other._path)),
      _tmpPath(std::move(other._tmpPath)), _fd(other._fd),
      _written(other._written)
{
    other._fd = -1;
    other._tmpPath.clear();
}

AtomicFileWriter &
AtomicFileWriter::operator=(AtomicFileWriter &&other) noexcept
{
    if (this != &other) {
        abandon();
        _path = std::move(other._path);
        _tmpPath = std::move(other._tmpPath);
        _fd = other._fd;
        _written = other._written;
        other._fd = -1;
        other._tmpPath.clear();
    }
    return *this;
}

StatusOr<AtomicFileWriter>
AtomicFileWriter::create(const std::string &path)
{
    AtomicFileWriter w;
    w._path = path;
    w._tmpPath = path + ".tmp." + std::to_string(::getpid());
    w._fd = ::open(w._tmpPath.c_str(),
                   O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (w._fd < 0)
        return ioErrorFromErrno("cannot create temp file", w._tmpPath);
    return w;
}

Status
AtomicFileWriter::append(const void *data, size_t bytes)
{
    GENAX_CHECK(_fd >= 0, "append on a closed AtomicFileWriter");
    const u8 *p = static_cast<const u8 *>(data);
    while (bytes > 0) {
        const size_t chunk = std::min(bytes, kWriteChunk);
        if (faultFires(fault::kStoreEnospc)) [[unlikely]]
            return ioError("no space left writing " + _tmpPath +
                           " (injected ENOSPC, io.store.enospc)");
        if (faultFires(fault::kStoreShortWrite)) [[unlikely]]
            return ioError("short write on " + _tmpPath +
                           " (injected, io.store.short_write)");
        maybeKillOnWrite(_fd, p, chunk);
        const ssize_t n = ::write(_fd, p, chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return ioErrorFromErrno("write failed", _tmpPath);
        }
        // A real short write is not an error — resume after the
        // bytes that landed.
        p += n;
        bytes -= static_cast<size_t>(n);
        _written += static_cast<u64>(n);
    }
    return okStatus();
}

Status
AtomicFileWriter::commit()
{
    GENAX_CHECK(_fd >= 0, "commit on a closed AtomicFileWriter");
    if (faultFires(fault::kStoreEio)) [[unlikely]] {
        abandon();
        return ioError("device error syncing " + _path +
                       " (injected EIO, io.store.eio)");
    }
    if (::fsync(_fd) != 0) {
        Status st = ioErrorFromErrno("fsync failed", _tmpPath);
        abandon();
        return st;
    }
    if (::close(_fd) != 0) {
        _fd = -1;
        Status st = ioErrorFromErrno("close failed", _tmpPath);
        abandon();
        return st;
    }
    _fd = -1;
    if (killPlan().preRename) [[unlikely]]
        _exit(137);
    if (::rename(_tmpPath.c_str(), _path.c_str()) != 0) {
        Status st = ioErrorFromErrno("rename failed", _tmpPath);
        abandon();
        return st;
    }
    if (killPlan().postRename) [[unlikely]]
        _exit(137);
    _tmpPath.clear();

    // The rename is only durable once the directory entry is synced.
    const size_t slash = _path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : _path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(),
                           O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd < 0)
        return ioErrorFromErrno("cannot open directory to sync", dir);
    if (::fsync(dfd) != 0) {
        Status st = ioErrorFromErrno("directory fsync failed", dir);
        ::close(dfd);
        return st;
    }
    if (::close(dfd) != 0)
        return ioErrorFromErrno("directory close failed", dir);
    return okStatus();
}

void
AtomicFileWriter::abandon()
{
    if (_fd >= 0) {
        ::close(_fd);
        _fd = -1;
    }
    if (!_tmpPath.empty()) {
        ::unlink(_tmpPath.c_str());
        _tmpPath.clear();
    }
}

// ------------------------------------------------------------------
// MmapRegion

MmapRegion::~MmapRegion()
{
    if (_data != nullptr)
        ::munmap(_data, _size);
}

MmapRegion::MmapRegion(MmapRegion &&other) noexcept
    : _data(other._data), _size(other._size)
{
    other._data = nullptr;
    other._size = 0;
}

MmapRegion &
MmapRegion::operator=(MmapRegion &&other) noexcept
{
    if (this != &other) {
        if (_data != nullptr)
            ::munmap(_data, _size);
        _data = other._data;
        _size = other._size;
        other._data = nullptr;
        other._size = 0;
    }
    return *this;
}

StatusOr<MmapRegion>
MmapRegion::map(const std::string &path)
{
    if (faultFires(fault::kStoreMmapFail)) [[unlikely]]
        return ioError("mmap refused for " + path +
                       " (injected, io.store.mmap_fail)");
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return ioErrorFromErrno("cannot open file for mmap", path);
    struct ::stat sb;
    if (::fstat(fd, &sb) != 0) {
        Status st = ioErrorFromErrno("fstat failed", path);
        ::close(fd);
        return st;
    }
    if (sb.st_size == 0) {
        ::close(fd);
        return invalidInputError("cannot map empty file: " + path);
    }
    void *mem = ::mmap(nullptr, static_cast<size_t>(sb.st_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (mem == MAP_FAILED)
        return ioErrorFromErrno("mmap failed", path);
    MmapRegion r;
    r._data = static_cast<u8 *>(mem);
    r._size = static_cast<size_t>(sb.st_size);
    return r;
}

// ------------------------------------------------------------------
// StoreWriter

StoreWriter::StoreWriter(std::string_view kind, u32 kind_version)
    : _kind(kind), _kindVersion(kind_version)
{
    GENAX_CHECK(!_kind.empty() &&
                    _kind.size() < sizeof(StoreHeader{}.kind),
                "store kind tag must be 1..7 chars: '", _kind, "'");
}

void
StoreWriter::addSection(std::string name, const void *data, u64 bytes)
{
    GENAX_CHECK(!name.empty() &&
                    name.size() < sizeof(StoreSectionEntry{}.name),
                "section name must be 1..15 chars: '", name, "'");
    GENAX_CHECK(data != nullptr || bytes == 0,
                "null section payload: '", name, "'");
    for (const auto &s : _pending)
        GENAX_CHECK(s.name != name, "duplicate section: '", name, "'");
    _pending.push_back({std::move(name), data, bytes});
}

Status
StoreWriter::writeFile(const std::string &path) const
{
    const u64 n = _pending.size();
    GENAX_CHECK(n <= kStoreMaxSections, "too many sections: ", n);

    std::vector<std::span<const u8>> payloads;
    for (const Pending &p : _pending)
        payloads.emplace_back(static_cast<const u8 *>(p.data), p.bytes);
    const std::vector<u64> sums = sectionChecksums(payloads);

    std::vector<StoreSectionEntry> table(n);
    u64 cur = alignUp(sizeof(StoreHeader) +
                      n * sizeof(StoreSectionEntry));
    for (u64 i = 0; i < n; ++i) {
        StoreSectionEntry &e = table[i];
        std::memset(&e, 0, sizeof(e));
        std::memcpy(e.name, _pending[i].name.data(),
                    _pending[i].name.size());
        e.offset = cur;
        e.bytes = _pending[i].bytes;
        e.checksum = sums[i];
        cur = alignUp(cur + e.bytes);
    }

    StoreHeader hdr{};
    std::memcpy(hdr.magic, kStoreMagic, sizeof(hdr.magic));
    std::memcpy(hdr.kind, _kind.data(), _kind.size());
    hdr.version = kStoreVersion;
    hdr.kindVersion = _kindVersion;
    hdr.sectionCount = n;
    hdr.sectionTableOffset = sizeof(StoreHeader);
    hdr.fileBytes = cur;
    hdr.tableChecksum =
        storeChecksum(table.data(), n * sizeof(StoreSectionEntry));
    hdr.headerChecksum =
        storeChecksum(&hdr, offsetof(StoreHeader, headerChecksum));

    GENAX_TRY_ASSIGN(AtomicFileWriter w,
                     AtomicFileWriter::create(path));
    GENAX_TRY(w.append(&hdr, sizeof(hdr)));
    GENAX_TRY(
        w.append(table.data(), n * sizeof(StoreSectionEntry)));
    static constexpr char zeros[kStoreAlign] = {};
    u64 pos = sizeof(StoreHeader) + n * sizeof(StoreSectionEntry);
    for (u64 i = 0; i < n; ++i) {
        if (table[i].offset > pos) {
            GENAX_TRY(w.append(zeros, table[i].offset - pos));
            pos = table[i].offset;
        }
        GENAX_TRY(w.append(_pending[i].data, _pending[i].bytes));
        pos += _pending[i].bytes;
    }
    if (hdr.fileBytes > pos)
        GENAX_TRY(w.append(zeros, hdr.fileBytes - pos));
    return w.commit();
}

// ------------------------------------------------------------------
// StoreFile

StatusOr<StoreFile>
StoreFile::open(const std::string &path, std::string_view expect_kind,
                bool prefer_mmap)
{
    StoreFile f;
    f._path = path;
    if (prefer_mmap) {
        // Zero-copy by preference; any mapping failure (including
        // the injected one) degrades to an owned whole-file read.
        auto m = MmapRegion::map(path);
        if (m.ok()) {
            f._map = std::move(*m);
            f._bytes = {f._map.data(), f._map.size()};
        }
    }
    if (!f._map.valid()) {
        GENAX_TRY_ASSIGN(f._owned, readWholeFile(path));
        f._bytes = {f._owned.data(), f._owned.size()};
    }

    const auto corrupt = [&path](const std::string &what) {
        return invalidInputError("store " + path + ": " + what);
    };
    const std::span<const u8> b = f._bytes;
    if (b.size() < sizeof(StoreHeader))
        return corrupt("file of " + std::to_string(b.size()) +
                       " bytes is too small for the header");
    StoreHeader hdr;
    std::memcpy(&hdr, b.data(), sizeof(hdr));
    if (std::memcmp(hdr.magic, kStoreMagic, sizeof(hdr.magic)) != 0)
        return corrupt("bad magic (not a GenAx store)");
    if (storeChecksum(&hdr, offsetof(StoreHeader, headerChecksum)) !=
        hdr.headerChecksum)
        return corrupt("header checksum mismatch");
    if (hdr.version != kStoreVersion)
        return corrupt("unsupported container version " +
                       std::to_string(hdr.version));
    const void *kind_end =
        std::memchr(hdr.kind, '\0', sizeof(hdr.kind));
    if (kind_end == nullptr || kind_end == hdr.kind)
        return corrupt("malformed kind tag");
    f._kind.assign(hdr.kind,
                   static_cast<const char *>(kind_end) - hdr.kind);
    if (!expect_kind.empty() && f._kind != expect_kind)
        return corrupt("store kind is '" + f._kind + "', want '" +
                       std::string(expect_kind) + "'");
    if (hdr.fileBytes != b.size())
        return corrupt("file is " + std::to_string(b.size()) +
                       " bytes but the header says " +
                       std::to_string(hdr.fileBytes) +
                       " (truncated or grown)");
    if (hdr.sectionTableOffset != sizeof(StoreHeader))
        return corrupt("unexpected section-table offset");
    if (hdr.sectionCount > kStoreMaxSections)
        return corrupt("implausible section count " +
                       std::to_string(hdr.sectionCount));
    const u64 tbytes =
        hdr.sectionCount * sizeof(StoreSectionEntry);
    if (sizeof(StoreHeader) + tbytes > b.size())
        return corrupt("section table extends past end of file");
    if (storeChecksum(b.data() + sizeof(StoreHeader), tbytes) !=
        hdr.tableChecksum)
        return corrupt("section-table checksum mismatch");

    f._version = hdr.version;
    f._kindVersion = hdr.kindVersion;
    // The section table, serially in table order: the first entry that
    // fails a check ends the walk.
    const auto entry = [&](u64 i) -> Status {
        StoreSectionEntry e;
        std::memcpy(&e,
                    b.data() + sizeof(StoreHeader) +
                        i * sizeof(StoreSectionEntry),
                    sizeof(e));
        const void *name_end =
            std::memchr(e.name, '\0', sizeof(e.name));
        if (name_end == nullptr || name_end == e.name)
            return corrupt("section " + std::to_string(i) +
                           ": malformed name");
        std::string name(
            e.name, static_cast<const char *>(name_end) - e.name);
        if (!f._byName.emplace(name, f._sections.size()).second)
            return corrupt("duplicate section '" + name + "'");
        if (e.offset % kStoreAlign != 0)
            return corrupt("section '" + name +
                           "' is misaligned at offset " +
                           std::to_string(e.offset));
        if (e.offset > b.size() || e.bytes > b.size() - e.offset)
            return corrupt("section '" + name +
                           "' extends past end of file");
        f._sections.push_back(
            {std::move(name), e.offset, e.bytes, e.checksum});
        return okStatus();
    };
    Status table_error;
    for (u64 i = 0; i < hdr.sectionCount && table_error.ok(); ++i)
        table_error = entry(i);

    // The checksums of the sections before it. The lowest-index
    // failure wins, as in a serial walk.
    std::vector<std::span<const u8>> payloads;
    for (const Section &s : f._sections)
        payloads.push_back(b.subspan(s.offset, s.bytes));
    const std::vector<u64> sums = sectionChecksums(payloads);
    for (u64 i = 0; i < sums.size(); ++i)
        if (sums[i] != f._sections[i].checksum)
            return corrupt("section '" + f._sections[i].name +
                           "' checksum mismatch (bit rot or torn "
                           "write)");
    GENAX_TRY(table_error);
    return f;
}

StatusOr<std::span<const u8>>
StoreFile::section(std::string_view name) const
{
    const auto it = _byName.find(name);
    if (it == _byName.end())
        return notFoundError("store " + _path + ": no section '" +
                             std::string(name) + "'");
    const Section &s = _sections[it->second];
    return std::span<const u8>(_bytes.data() + s.offset, s.bytes);
}

} // namespace genax
