/**
 * @file
 * Crash-safe on-disk store container.
 *
 * A *store* is a single file holding named binary sections behind a
 * fixed little-endian POD header: magic, store kind, format versions,
 * a section table, and a 64-bit streaming checksum per section (plus
 * one over the header and one over the table itself). Section
 * payloads start at 8-byte-aligned offsets so an mmap'ed store can be
 * aliased directly by POD views (the flat k-mer index's
 * {key, offset, count} entries in particular) with no copy and no
 * misaligned loads.
 *
 * Durability: StoreWriter emits the file through AtomicFileWriter —
 * temp file in the target directory, fsync the file, rename over the
 * destination, fsync the directory — so a crash at any instant leaves
 * either the old store or none, never a torn one. The corruption
 * model is verified from the outside: tools/store_chaos truncates at
 * every section boundary, bit-flips header/table/payload bytes and
 * kills the writer mid-save; every mutation must surface as a typed
 * Status from StoreFile::open, never a crash or a silently wrong
 * payload.
 *
 * Loading: StoreFile::open prefers a zero-copy MmapRegion and falls
 * back to an owned whole-file read when mapping fails (the
 * io.store.mmap_fail fault site drives that path in tests). All
 * structural validation and the full checksum walk happen at open —
 * a successfully opened store hands out infallible section spans.
 * The walk checksums sections concurrently on ThreadPool::global(),
 * so open() is called from a caller thread, never from inside a pool
 * region.
 *
 * Fault sites (DESIGN.md "On-disk stores & durability"):
 * io.store.short_write / io.store.eio / io.store.enospc on the write
 * path, io.store.mmap_fail on the load path.
 */

#ifndef GENAX_IO_STORE_HH
#define GENAX_IO_STORE_HH

#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace genax {

// ------------------------------------------------------------------
// Checksum

/**
 * Streaming 64-bit checksum: the input is folded 8 bytes at a time
 * through the splitmix64 finalizer (the same mix the flat index's
 * slotOf uses), with the total length folded into the digest so
 * truncation to a word boundary still changes the value. The digest
 * is independent of how the input was split across update() calls.
 */
class StoreChecksum
{
  public:
    void update(const void *data, size_t bytes);
    u64 digest() const;

    /** splitmix64 finalizer — the shared bit mixer. */
    static u64
    mix(u64 h)
    {
        h += 0x9e3779b97f4a7c15ULL;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
        return h ^ (h >> 31);
    }

  private:
    u64 _h = 0x243f6a8885a308d3ULL; //!< pi fraction, arbitrary start
    u64 _len = 0;
    u64 _pending = 0;      //!< partial trailing word, little-endian
    u32 _pendingBytes = 0; //!< valid bytes in _pending (0..7)
};

/** One-shot convenience over StoreChecksum. */
u64 storeChecksum(const void *data, size_t bytes);

// ------------------------------------------------------------------
// On-disk layout

/** Store container magic ("GXSTORE1"). */
inline constexpr char kStoreMagic[8] = {'G', 'X', 'S', 'T',
                                        'O', 'R', 'E', '1'};

/** Container format version this build reads and writes. */
inline constexpr u32 kStoreVersion = 1;

/** Section payload alignment within the file. */
inline constexpr u64 kStoreAlign = 8;

/** Sanity bound on the section count of a well-formed store. */
inline constexpr u64 kStoreMaxSections = u64{1} << 20;

/** Fixed 64-byte store header. Everything is little-endian POD;
 *  headerChecksum covers the bytes before it, tableChecksum covers
 *  the serialized section table. */
struct StoreHeader
{
    char magic[8];   //!< kStoreMagic
    char kind[8];    //!< store kind tag, NUL-padded (e.g. "GXSNAP")
    u32 version;     //!< container version (kStoreVersion)
    u32 kindVersion; //!< kind-specific format version
    u64 sectionCount;
    u64 sectionTableOffset; //!< == sizeof(StoreHeader)
    u64 fileBytes;          //!< total file size, padding included
    u64 tableChecksum;      //!< over the section-table bytes
    u64 headerChecksum;     //!< over this header minus this field
};
static_assert(sizeof(StoreHeader) == 64);
static_assert(std::is_trivially_copyable_v<StoreHeader>);

/** One section-table entry (40 bytes). */
struct StoreSectionEntry
{
    char name[16]; //!< NUL-padded section name (1..15 chars)
    u64 offset;    //!< payload offset from file start, 8-aligned
    u64 bytes;     //!< payload size (padding not included)
    u64 checksum;  //!< storeChecksum over the payload
};
static_assert(sizeof(StoreSectionEntry) == 40);
static_assert(std::is_trivially_copyable_v<StoreSectionEntry>);

// ------------------------------------------------------------------
// Atomic durable writes

/**
 * Write-new-then-rename file writer: all bytes go to
 * `<path>.tmp.<pid>` in the destination directory; commit() fsyncs
 * the temp file, renames it over `path` and fsyncs the directory.
 * Until commit() returns OK the destination is untouched, and the
 * destructor unlinks an uncommitted temp file, so every outcome is
 * "old file" or "new file" — never a torn mix.
 *
 * Not thread-safe; one writer per target path at a time (the pid in
 * the temp name only separates concurrent *processes*).
 */
class AtomicFileWriter
{
  public:
    AtomicFileWriter() = default;
    ~AtomicFileWriter();

    AtomicFileWriter(AtomicFileWriter &&other) noexcept;
    AtomicFileWriter &operator=(AtomicFileWriter &&other) noexcept;
    AtomicFileWriter(const AtomicFileWriter &) = delete;
    AtomicFileWriter &operator=(const AtomicFileWriter &) = delete;

    /** Open the temp file next to `path` (errno-annotated). */
    static StatusOr<AtomicFileWriter> create(const std::string &path);

    /** Append bytes to the temp file; consults the short_write /
     *  enospc fault sites and retries real short writes. */
    Status append(const void *data, size_t bytes);

    /** fsync + rename + directory fsync. After OK the new file is
     *  durably in place; after an error the old file is untouched
     *  and the temp file has been cleaned up. */
    Status commit();

    /** Drop the temp file without touching the destination. */
    void abandon();

    u64 bytesWritten() const { return _written; }
    const std::string &path() const { return _path; }

  private:
    std::string _path;
    std::string _tmpPath;
    int _fd = -1;
    u64 _written = 0;
};

// ------------------------------------------------------------------
// mmap

/** RAII read-only memory mapping of a whole file. */
class MmapRegion
{
  public:
    MmapRegion() = default;
    ~MmapRegion();

    MmapRegion(MmapRegion &&other) noexcept;
    MmapRegion &operator=(MmapRegion &&other) noexcept;
    MmapRegion(const MmapRegion &) = delete;
    MmapRegion &operator=(const MmapRegion &) = delete;

    /** Map `path` read-only; IoError on any OS failure (and from the
     *  io.store.mmap_fail site), InvalidInput for an empty file. */
    static StatusOr<MmapRegion> map(const std::string &path);

    const u8 *data() const { return _data; }
    size_t size() const { return _size; }
    bool valid() const { return _data != nullptr; }

  private:
    u8 *_data = nullptr;
    size_t _size = 0;
};

// ------------------------------------------------------------------
// Writing stores

/**
 * Collects named sections (borrowed pointers — the caller keeps the
 * payloads alive until writeFile returns) and emits the whole store
 * atomically. Section order in the file is the order of addSection
 * calls; names must be unique, 1..15 bytes. writeFile checksums the
 * sections on every core of ThreadPool::global(), as StoreFile::open
 * does: call it from a caller thread, never from inside a pool
 * region. The bytes do not depend on the width.
 */
class StoreWriter
{
  public:
    /** @param kind NUL-padded kind tag, 1..7 chars. */
    explicit StoreWriter(std::string_view kind, u32 kind_version = 1);

    void addSection(std::string name, const void *data, u64 bytes);

    /** Lay out, checksum and atomically write the store. */
    Status writeFile(const std::string &path) const;

  private:
    struct Pending
    {
        std::string name;
        const void *data;
        u64 bytes;
    };
    std::string _kind;
    u32 _kindVersion;
    std::vector<Pending> _pending;
};

// ------------------------------------------------------------------
// Reading stores

/**
 * A validated, opened store. open() maps the file (owned-read
 * fallback), checks the header, the section table and every section
 * checksum; afterwards section() is a bounds-checked name lookup over
 * known-good data. The object owns the backing bytes — spans handed
 * out stay valid for its lifetime (moves keep them valid: both the
 * mapping and the owned buffer are stable under move).
 */
class StoreFile
{
  public:
    struct Section
    {
        std::string name;
        u64 offset;
        u64 bytes;
        u64 checksum;
    };

    /**
     * Open and fully verify a store. `expect_kind` is matched against
     * the header when non-empty; pass "" to open any kind (the
     * --verify inspector). Corruption comes back as InvalidInput, OS
     * trouble as IoError; with several bad sections, the message
     * names the lowest-index one.
     */
    static StatusOr<StoreFile> open(const std::string &path,
                                    std::string_view expect_kind,
                                    bool prefer_mmap = true);

    /** True when the backing is the zero-copy mapping rather than an
     *  owned read (the mmap_fail degraded path). */
    bool mapped() const { return _map.valid(); }

    std::string_view kind() const { return _kind; }
    u32 version() const { return _version; }
    u32 kindVersion() const { return _kindVersion; }
    u64 fileBytes() const { return _bytes.size(); }
    const std::string &path() const { return _path; }

    const std::vector<Section> &sections() const { return _sections; }

    /** Payload span by name; NotFound for an unknown name. */
    StatusOr<std::span<const u8>> section(std::string_view name) const;

    /** Payload span reinterpreted as an array of POD T; InvalidInput
     *  when the payload size is not a multiple of sizeof(T). */
    template <typename T>
    StatusOr<std::span<const T>>
    sectionAs(std::string_view name) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(alignof(T) <= kStoreAlign);
        GENAX_TRY_ASSIGN(const std::span<const u8> raw, section(name));
        if (raw.size() % sizeof(T) != 0) {
            return invalidInputError(
                "store " + _path + ": section '" + std::string(name) +
                "' size " + std::to_string(raw.size()) +
                " is not a multiple of " + std::to_string(sizeof(T)));
        }
        return std::span<const T>(
            reinterpret_cast<const T *>(raw.data()),
            raw.size() / sizeof(T));
    }

  private:
    std::string _path;
    std::string _kind;
    u32 _version = 0;
    u32 _kindVersion = 0;
    MmapRegion _map;
    std::vector<u8> _owned;
    std::span<const u8> _bytes;
    std::vector<Section> _sections;
    /** Index into _sections by name: a snapshot looks up one
     *  section per 8 MiB slice of its table, postings and filter,
     *  so a scan would make open() quadratic in the slice count. */
    std::map<std::string, size_t, std::less<>> _byName;
};

} // namespace genax

#endif // GENAX_IO_STORE_HH
