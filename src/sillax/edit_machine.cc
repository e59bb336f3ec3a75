#include "sillax/edit_machine.hh"

#include <algorithm>

#include "common/check.hh"

namespace genax {

StructuralEditMachine::StructuralEditMachine(u32 k)
    : _k(k), _cmps(k)
{
    GENAX_CHECK(k <= kMaxSillaK, "Silla edit bound ", k,
                " exceeds the supported maximum ", kMaxSillaK);
    const size_t n = static_cast<size_t>(k + 1) * (k + 1);
    _cur0.assign(n, 0);
    _cur1.assign(n, 0);
    _curW.assign(n, 0);
    _next0.assign(n, 0);
    _next1.assign(n, 0);
    _nextW.assign(n, 0);
}

std::optional<u32>
StructuralEditMachine::distance(const Seq &r, const Seq &q)
{
    const u64 n = r.size(), m = q.size();
    _stats = {};
    if (n > m + _k || m > n + _k)
        return std::nullopt;
    _cmps.reset();

    // Both buffer generations are all-zero outside the active lists
    // (the sweep re-zeroes each consumed generation), so clearing
    // the previous call's live cells restores a fully blank grid
    // without a (K+1)^2 fill.
    for (const size_t s : _activeCur) {
        _cur0[s] = 0;
        _cur1[s] = 0;
        _curW[s] = 0;
    }
    _cur0[idx(0, 0)] = 1;
    _activeCur.clear();
    _activeCur.push_back(idx(0, 0));

    // A cell enters the next-cycle active list the first time any of
    // its three state bits is set; activation stats count set bits,
    // so the sparse visit order (insertion order, deterministic)
    // accumulates exactly what the dense i-then-d sweep did.
    const auto mark = [&](size_t s) {
        if (!_next0[s] && !_next1[s] && !_nextW[s])
            _activeNext.push_back(s);
    };

    std::optional<u32> best;
    const u64 max_cycle = std::min(n, m) + _k;
    u64 c = 0;
    for (; c <= max_cycle; ++c) {
        // Stream the cycle's characters into the comparator array
        // (pad symbols past the string ends).
        _cmps.step(c < n ? r[c] : ComparatorArray::kPadR,
                   c < m ? q[c] : ComparatorArray::kPadQ);

        _activeNext.clear();
        u64 active = 0;
        bool any = false;

        for (const size_t s : _activeCur) {
            const u32 i = static_cast<u32>(s / (_k + 1));
            const u32 d = static_cast<u32>(s % (_k + 1));
            if (_curW[s]) {
                ++active;
                any = true;
                mark(idx(i + 1, d + 1));
                _next0[idx(i + 1, d + 1)] = 1;
            }
            for (u32 layer = 0; layer <= 1; ++layer) {
                const u8 on = layer == 0 ? _cur0[s] : _cur1[s];
                if (!on)
                    continue;
                ++active;
                if (c - i == n && c - d == m) {
                    const u32 edits = i + d + layer;
                    if (!best || edits < *best)
                        best = edits;
                    continue;
                }
                if (c - i > n || c - d > m)
                    continue;
                any = true;
                // The latched systolic comparison, not a direct
                // string lookup.
                if (_cmps.compare(i, d)) {
                    mark(s);
                    (layer == 0 ? _next0 : _next1)[s] = 1;
                    continue;
                }
                auto &lay = layer == 0 ? _next0 : _next1;
                if (i + 1 + d + layer <= _k) {
                    mark(idx(i + 1, d));
                    lay[idx(i + 1, d)] = 1;
                }
                if (i + d + 1 + layer <= _k) {
                    mark(idx(i, d + 1));
                    lay[idx(i, d + 1)] = 1;
                }
                if (layer == 0) {
                    if (i + d + 1 <= _k) {
                        mark(s);
                        _next1[s] = 1;
                    }
                } else if (i + d + 2 <= _k) {
                    mark(s);
                    _nextW[s] = 1;
                }
            }
        }
        _stats.peakActive = std::max(_stats.peakActive, active);
        _stats.totalActivations += active;
        std::swap(_cur0, _next0);
        std::swap(_cur1, _next1);
        std::swap(_curW, _nextW);
        // Re-zero the consumed generation (now the next buffers) so
        // the all-zero-outside-the-list invariant holds for reuse.
        for (const size_t s : _activeCur) {
            _next0[s] = 0;
            _next1[s] = 0;
            _nextW[s] = 0;
        }
        std::swap(_activeCur, _activeNext);
        if (best || !any)
            break;
    }
    _stats.cycles = c;
    return best;
}

} // namespace genax
