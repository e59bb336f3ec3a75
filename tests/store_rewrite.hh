/**
 * @file
 * Rewrite a store file section by section through StoreWriter, so
 * every section, table and header checksum is recomputed: the way the
 * snapshot tests make a file that passes the checksum walk but breaks
 * a format rule (an older kind version, a filter missing a key's bit).
 */

#ifndef GENAX_TESTS_STORE_REWRITE_HH
#define GENAX_TESTS_STORE_REWRITE_HH

#include <functional>
#include <string>
#include <vector>

#include "io/store.hh"

namespace genax::testing {

/**
 * Copy the store at `from` to `to` with kind version `version`.
 * `edit`, when set, sees each section's name and bytes in file order;
 * it may change the bytes, and returns false to drop the section.
 */
inline Status
rewriteStore(
    const std::string &from, const std::string &to, u32 version,
    const std::function<bool(const std::string &, std::string &)> &edit =
        {})
{
    GENAX_TRY_ASSIGN(const StoreFile in, StoreFile::open(from, ""));
    std::vector<std::pair<std::string, std::string>> kept;
    for (const StoreFile::Section &s : in.sections()) {
        GENAX_TRY_ASSIGN(const std::span<const u8> raw,
                         in.section(s.name));
        std::string bytes(raw.begin(), raw.end());
        if (!edit || edit(s.name, bytes))
            kept.emplace_back(s.name, std::move(bytes));
    }
    StoreWriter w(in.kind(), version);
    for (const auto &[name, bytes] : kept)
        w.addSection(name, bytes.data(), bytes.size());
    return w.writeFile(to);
}

} // namespace genax::testing

#endif // GENAX_TESTS_STORE_REWRITE_HH
