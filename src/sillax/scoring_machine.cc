#include "sillax/scoring_machine.hh"

#include <algorithm>
#include <limits>

#include "align/simd/dispatch.hh"
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
StructuralScoringMachine::runNaive(const Seq &r, const Seq &q)
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

SillaScoreResult
StructuralScoringMachine::runEvent(const Seq &r, const Seq &q)
{
    const u64 n = r.size(), m = q.size();
    const u32 stride = _k + 1;
    std::fill(_hCur.begin(), _hCur.end(), kNegInf);
    std::fill(_eCur.begin(), _eCur.end(), kNegInf);
    std::fill(_fCur.begin(), _fCur.end(), kNegInf);
    _bestSeen.assign(static_cast<size_t>(stride) * stride, 0);

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

#if defined(GENAX_SIMD_AVX2)
    // Lean-interior rows can run on the vector row kernel; all tiers
    // are bit-identical by contract, so this is purely a speed choice
    // (and GENAX_FORCE_SCALAR / --kernel pin the scalar reference).
    const bool use_avx2 =
        simd::activeKernelTier() >= simd::KernelTier::Avx2;
#endif

    for (u64 c = 0; c <= max_cycle; ++c) {
        // Same live-cell window as the dense oracle (see runNaive):
        // cells outside it would compute and store -inf with no
        // consider() or clipping-register update.
        const u32 i_lo =
            c > n ? static_cast<u32>(std::min<u64>(c - n, _k + 1))
                  : 0;
        const u32 i_hi = static_cast<u32>(std::min<u64>(_k, c));
        const u32 d_lo =
            c > m ? static_cast<u32>(std::min<u64>(c - m, _k + 1))
                  : 0;

        // Incremental frontier fill in place of whole-array resets,
        // exactly as in the traceback machine's event path: every
        // cell of the cycle-c window stores all three lanes, and
        // cycle c+1 reads only cells the cycle-c sweep wrote —
        // except the diagonal self-reads on the fresh anti-diagonal
        // i + d == c, which must see the exact -inf a dark PE holds.
        // Everything outside is two-generation-stale garbage that
        // provably stays unread (the scoring and traceback machines
        // share the window geometry).
        {
            const u32 fi_lo = std::max(
                i_lo, c > _k ? static_cast<u32>(c - _k) : 0);
            for (u32 i = fi_lo; i <= i_hi; ++i) {
                const u32 d = static_cast<u32>(c - i);
                if (d < d_lo)
                    break; // d only shrinks as i grows
                _hCur[idx(i, d)] = kNegInf;
            }
        }

        // Guarded cell body for boundary PEs (i == 0, cell_r == 0,
        // d == 0): the reference semantics, -inf checks included,
        // with the comparator read replaced by its latched-datapath
        // identity — at cycle c the array would hold cycle c-1's
        // retro comparisons, i.e. exactly R[cell_r-1] == Q[cell_q-1].
        const auto cell = [&](u32 i, u32 d) {
            const u64 cell_r = c - i;
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
            if (cell_r >= 1 && cell_q >= 1 && _hCur[self] != kNegInf)
                diag = _hCur[self] +
                       _sc.sub(r[cell_r - 1], q[cell_q - 1]);

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
        };

#if defined(GENAX_SIMD_AVX2)
        // Vector path: guarded boundary cells first, then one kernel
        // invocation over every lean row of the cycle. Hoisting the
        // guarded cells cannot change any output: within one cycle
        // the best-cell update is order-independent (the tie-break
        // keys pin a unique cell; see scoring_row.hh), and the
        // clipping registers fold disjoint cells.
        if (use_avx2) {
            for (u32 i = i_lo; i <= i_hi; ++i) {
                const u32 d_hi =
                    static_cast<u32>(std::min<u64>(_k, c - i));
                if (i == 0 || c == i) {
                    for (u32 d = d_lo; d <= d_hi; ++d)
                        cell(i, d);
                } else if (d_lo == 0) {
                    cell(i, 0); // a lean row's guarded d == 0 cell
                }
            }
            const u32 lean_lo = std::max(i_lo, 1u);
            if (c >= 1 && lean_lo <= i_hi) {
                const u32 lean_hi = static_cast<u32>(
                    std::min<u64>(i_hi, c - 1));
                const u32 lean_d = std::max(d_lo, 1u);
                if (lean_lo <= lean_hi) {
                    const detail::ScoringCycleCtx ctx{
                        _hCur.data(),  _eCur.data(),
                        _fCur.data(),  _hNext.data(),
                        _eNext.data(), _fNext.data(),
                        _bestSeen.data(),
                        r.data(),      q.data(),
                        c,             _k,
                        open_ext,      _sc.gapExtend,
                        _sc.match,     _sc.mismatch,
                        res.best};
                    _rowEvents.clear();
                    detail::scoringStreamCycleAvx2(
                        ctx, lean_lo, lean_hi, lean_d, _rowEvents);
                    for (const auto &ev : _rowEvents) {
                        const size_t self = idx(ev.i, ev.d);
                        consider(_hNext[self], ev.i, ev.d, c - ev.i,
                                 c - ev.d, c);
                    }
                }
            }
            std::swap(_hCur, _hNext);
            std::swap(_eCur, _eNext);
            std::swap(_fCur, _fNext);
            continue;
        }
#endif
        for (u32 i = i_lo; i <= i_hi; ++i) {
            const u64 cell_r = c - i;
            const u32 d_hi =
                static_cast<u32>(std::min<u64>(_k, c - i));
            if (i == 0 || cell_r == 0) {
                for (u32 d = d_lo; d <= d_hi; ++d)
                    cell(i, d);
                continue;
            }
            u32 d = d_lo;
            if (d == 0 && d <= d_hi) {
                cell(i, 0);
                d = 1;
            }
            // Lean interior: i >= 1 and d >= 1 with cell_r >= 1 and
            // cell_q >= 1, so the E/F source H values are real (every
            // in-window cell's H is real from its entry cycle — the
            // anchor seeds (0,0) and gap openings off a real H reach
            // each fresh cell), making e, f and hence h real. The
            // only possibly-junk term is the diagonal self-read on a
            // fresh cell (exact -inf plus a substitution score),
            // which sits hundreds of millions below any real e/f and
            // loses the max exactly as the guarded body's -inf does.
            const size_t row = static_cast<size_t>(i) * stride;
            for (; d <= d_hi; ++d) {
                const size_t self = row + d;
                const size_t srcE = self - stride;
                const size_t srcF = self - 1;

                const i32 e =
                    std::max(_hCur[srcE] - open_ext,
                             _eCur[srcE] - _sc.gapExtend);
                const i32 f =
                    std::max(_hCur[srcF] - open_ext,
                             _fCur[srcF] - _sc.gapExtend);
                const u64 cell_q = c - d;
                const i32 diag =
                    _hCur[self] + _sc.sub(r[cell_r - 1],
                                          q[cell_q - 1]);
                const i32 h = std::max({diag, e, f});

                _eNext[self] = e;
                _fNext[self] = f;
                _hNext[self] = h;
                consider(h, i, d, cell_r, cell_q, c);
                _bestSeen[self] = std::max(_bestSeen[self], h);
            }
        }
        std::swap(_hCur, _hNext);
        std::swap(_eCur, _eNext);
        std::swap(_fCur, _fNext);
    }
    res.streamCycles = max_cycle + 1;
    return res;
}

std::pair<i32, Cycle>
StructuralScoringMachine::backPropagateBest()
{
    GENAX_CHECK(!_bestSeen.empty(),
                 "backPropagateBest requires a prior run()");
    // Local-only reduction: every cycle a PE folds in its upstream
    // (i+1,d) / (i,d+1) / (i+1,d+1) neighbours' registers, so after
    // p passes a PE holds the maximum over the (p+1)-sided square
    // anchored at it, and its fixed point is the maximum over its
    // whole upper-right quadrant. The pass loop runs until the first
    // all-unchanged pass; a PE last changes on the pass equal to the
    // Chebyshev distance to the nearest maximiser of its quadrant,
    // so the pass count is 1 + the largest such distance. One
    // reverse sweep computes both the quadrant maxima and those
    // distances — same register values, same cycle count, no
    // iteration to a fixed point.
    const u32 kk = _k + 1;
    std::vector<i32> qmax(_bestSeen.size());
    std::vector<Cycle> dist(_bestSeen.size(), 0);
    Cycle max_dist = 0;
    for (u32 i = kk; i-- > 0;) {
        for (u32 d = kk; d-- > 0;) {
            const size_t s = idx(i, d);
            i32 v = _bestSeen[s];
            if (i + 1 < kk)
                v = std::max(v, qmax[idx(i + 1, d)]);
            if (d + 1 < kk)
                v = std::max(v, qmax[idx(i, d + 1)]);
            if (i + 1 < kk && d + 1 < kk)
                v = std::max(v, qmax[idx(i + 1, d + 1)]);
            qmax[s] = v;
            if (_bestSeen[s] == v) {
                dist[s] = 0;
                continue;
            }
            // The maximum came from a neighbour's quadrant; hop to
            // the nearest neighbour that still sees it.
            Cycle best = std::numeric_limits<Cycle>::max();
            if (i + 1 < kk && qmax[idx(i + 1, d)] == v)
                best = std::min(best, dist[idx(i + 1, d)]);
            if (d + 1 < kk && qmax[idx(i, d + 1)] == v)
                best = std::min(best, dist[idx(i, d + 1)]);
            if (i + 1 < kk && d + 1 < kk &&
                qmax[idx(i + 1, d + 1)] == v)
                best = std::min(best, dist[idx(i + 1, d + 1)]);
            GENAX_DCHECK(best != std::numeric_limits<Cycle>::max(),
                         "quadrant max not visible from any "
                         "neighbour");
            dist[s] = best + 1;
            max_dist = std::max(max_dist, dist[s]);
        }
    }
    return {qmax[idx(0, 0)], max_dist + 1};
}

std::pair<i32, Cycle>
StructuralScoringMachine::backPropagateBestNaive()
{
    GENAX_CHECK(!_bestSeen.empty(),
                 "backPropagateBest requires a prior run()");
    // Lock-step reference for the reduction above: every cycle a PE
    // folds in its upstream neighbours' registers; the grid diameter
    // bounds convergence. Kept as the equivalence oracle.
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
