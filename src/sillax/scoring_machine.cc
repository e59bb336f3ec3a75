#include "sillax/scoring_machine.hh"

#include <algorithm>

#include "common/check.hh"

namespace genax {

namespace {

constexpr i32 kNegInf = INT32_MIN / 4;

} // namespace

StructuralScoringMachine::StructuralScoringMachine(u32 k,
                                                   const Scoring &sc)
    : _k(k), _sc(sc), _cmps(k)
{
    const size_t n = static_cast<size_t>(k + 1) * (k + 1);
    _hCur.assign(n, kNegInf);
    _hNext.assign(n, kNegInf);
    _eCur.assign(n, kNegInf);
    _eNext.assign(n, kNegInf);
    _fCur.assign(n, kNegInf);
    _fNext.assign(n, kNegInf);
}

SillaScoreResult
StructuralScoringMachine::run(const Seq &r, const Seq &q)
{
    const u64 n = r.size(), m = q.size();
    _cmps.reset();
    std::fill(_hCur.begin(), _hCur.end(), kNegInf);
    std::fill(_eCur.begin(), _eCur.end(), kNegInf);
    std::fill(_fCur.begin(), _fCur.end(), kNegInf);
    _bestSeen.assign(static_cast<size_t>(_k + 1) * (_k + 1), 0);

    SillaScoreResult res;
    res.best = 0;
    u64 best_rq = 0, best_r = 0;
    bool have_best = false;
    auto consider = [&](i32 score, u32 i, u32 d, u64 cell_r,
                        u64 cell_q, Cycle c) {
        if (score < res.best)
            return;
        const u64 rq = cell_r + cell_q;
        if (score > res.best || !have_best || rq < best_rq ||
            (rq == best_rq && cell_r < best_r)) {
            res.best = score;
            res.winnerI = i;
            res.winnerD = d;
            res.bestCycle = c;
            res.refEnd = cell_r;
            res.qryEnd = cell_q;
            best_rq = rq;
            best_r = cell_r;
            have_best = true;
        }
    };
    consider(0, 0, 0, 0, 0, 0);

    const i32 open_ext = _sc.gapOpen + _sc.gapExtend;
    const u64 max_cycle = std::min(n, m) + _k;
    for (u64 c = 0; c <= max_cycle; ++c) {
        // The comparator array currently holds cycle c-1's retro
        // comparisons — exactly what the diagonal (closed-path)
        // continuation at cycle c consumes.
        std::fill(_hNext.begin(), _hNext.end(), kNegInf);
        std::fill(_eNext.begin(), _eNext.end(), kNegInf);
        std::fill(_fNext.begin(), _fNext.end(), kNegInf);

        // Live-cell window. Scores spread from PE (0,0) one
        // neighbour hop per cycle, so cells with i + d > c are still
        // at -inf (proven inductively: a cell's sources at cycle c-1
        // have index sums >= i + d - 1); cells with i < c - n or
        // d < c - m have walked off the end of a sequence. Both
        // kinds would compute and store -inf — exactly what the fill
        // already left there — so the clamped loops visit precisely
        // the cells that can contribute.
        const u32 i_lo =
            c > n ? static_cast<u32>(std::min<u64>(c - n, _k + 1))
                  : 0;
        const u32 i_hi = static_cast<u32>(
            std::min<u64>(_k, c));
        const u32 d_lo =
            c > m ? static_cast<u32>(std::min<u64>(c - m, _k + 1))
                  : 0;
        for (u32 i = i_lo; i <= i_hi; ++i) {
            const u64 cell_r = c - i;
            const u32 d_hi = static_cast<u32>(
                std::min<u64>(_k, c - i));
            for (u32 d = d_lo; d <= d_hi; ++d) {
                const u64 cell_q = c - d;
                const size_t self = idx(i, d);

                i32 e = kNegInf;
                if (i >= 1 && cell_q >= 1) {
                    const size_t src = idx(i - 1, d);
                    if (_hCur[src] != kNegInf)
                        e = _hCur[src] - open_ext;
                    if (_eCur[src] != kNegInf)
                        e = std::max(e, _eCur[src] - _sc.gapExtend);
                }
                i32 f = kNegInf;
                if (d >= 1 && cell_r >= 1) {
                    const size_t src = idx(i, d - 1);
                    if (_hCur[src] != kNegInf)
                        f = _hCur[src] - open_ext;
                    if (_fCur[src] != kNegInf)
                        f = std::max(f, _fCur[src] - _sc.gapExtend);
                }

                i32 diag = kNegInf;
                if (cell_r >= 1 && cell_q >= 1 &&
                    _hCur[self] != kNegInf) {
                    // Latched systolic comparison instead of a
                    // direct string lookup.
                    diag = _hCur[self] + (_cmps.compare(i, d)
                                              ? _sc.match
                                              : -_sc.mismatch);
                }

                i32 h = std::max({diag, e, f});
                if (c == 0 && i == 0 && d == 0)
                    h = 0;

                _eNext[self] = e;
                _fNext[self] = f;
                _hNext[self] = h;
                if (h != kNegInf) {
                    consider(h, i, d, cell_r, cell_q, c);
                    _bestSeen[self] = std::max(_bestSeen[self], h);
                }
            }
        }
        std::swap(_hCur, _hNext);
        std::swap(_eCur, _eNext);
        std::swap(_fCur, _fNext);

        _cmps.step(c < n ? r[c] : ComparatorArray::kPadR,
                   c < m ? q[c] : ComparatorArray::kPadQ);
    }
    res.streamCycles = max_cycle + 1;
    return res;
}

std::pair<i32, Cycle>
StructuralScoringMachine::backPropagateBest()
{
    GENAX_CHECK(!_bestSeen.empty(),
                 "backPropagateBest requires a prior run()");
    // Every cycle a PE folds in its upstream (i+1,d) / (i,d+1) /
    // (i+1,d+1) neighbours' registers, so after p cycles it holds the
    // maximum over the (p+1)-sided square anchored at it; the
    // reduction ends on the first cycle that changes no register, so
    // the grid diameter bounds it.
    std::vector<i32> cur = _bestSeen;
    std::vector<i32> next = cur;
    Cycle cycles = 0;
    for (bool changed = true; changed; ++cycles) {
        changed = false;
        for (u32 i = 0; i <= _k; ++i) {
            for (u32 d = 0; d <= _k; ++d) {
                i32 v = cur[idx(i, d)];
                if (i + 1 <= _k)
                    v = std::max(v, cur[idx(i + 1, d)]);
                if (d + 1 <= _k)
                    v = std::max(v, cur[idx(i, d + 1)]);
                if (i + 1 <= _k && d + 1 <= _k)
                    v = std::max(v, cur[idx(i + 1, d + 1)]);
                next[idx(i, d)] = v;
                changed |= v != cur[idx(i, d)];
            }
        }
        std::swap(cur, next);
    }
    return {cur[idx(0, 0)], cycles};
}

} // namespace genax
