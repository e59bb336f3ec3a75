#include "silla/silla_traceback.hh"

#include <algorithm>
#include <limits>

#include "align/simd/dispatch.hh"
#include "common/check.hh"
#include "silla/silla_stream_row.hh"

namespace genax {

namespace {

constexpr i32 kNegInf = INT32_MIN / 4;

} // namespace

SillaTraceback::SillaTraceback(u32 k, const Scoring &sc)
    : _k(k), _sc(sc)
{
    GENAX_CHECK(k <= kMaxSillaK, "Silla edit bound ", k,
                " exceeds the supported maximum ", kMaxSillaK);
    GENAX_CHECK(sc.match >= 0 && sc.mismatch > 0 && sc.gapOpen >= 0 &&
                    sc.gapExtend > 0,
                "degenerate scoring scheme: match=", sc.match,
                " mismatch=", sc.mismatch, " gapOpen=", sc.gapOpen,
                " gapExtend=", sc.gapExtend);
    const size_t n = peCount();
    _hCur.assign(n, kNegInf);
    _hNext.assign(n, kNegInf);
    _eCur.assign(n, kNegInf);
    _eNext.assign(n, kNegInf);
    _fCur.assign(n, kNegInf);
    _fNext.assign(n, kNegInf);
    _eRunCur.assign(n, 0);
    _eRunNext.assign(n, 0);
    _fRunCur.assign(n, 0);
    _fRunNext.assign(n, 0);
    _dEnd.reserve(k + 1);
    _rowOff.reserve(k + 1);
}

SillaAlignment
SillaTraceback::alignNaive(const Seq &r, const Seq &q)
{
    // Every PE's cap clears the lowest score: the whole array.
    buildRegion(r.size(), q.size(), std::numeric_limits<i64>::min());
    return collect(r, q, streamPhase(r, q));
}

SillaAlignment
SillaTraceback::alignEvent(const Seq &r, const Seq &q)
{
    buildRegion(r.size(), q.size(), lowerBound(r, q));
    return collect(r, q, streamPhase(r, q));
}

i64
SillaTraceback::scoreCap(u64 n, u64 m, u32 i, u32 d) const
{
    return i64{_sc.match} * std::min(static_cast<i64>(n) - d,
                                     static_cast<i64>(m) - i) +
           _sc.gapCost(static_cast<i32>(i)) +
           _sc.gapCost(static_cast<i32>(d));
}

i64
SillaTraceback::lowerBound(const Seq &r, const Seq &q)
{
    const u64 n = r.size(), m = q.size(), mn = std::min(n, m);
    // PE (0,0)'s ungapped path: its best prefix score (cycle 0 scores
    // 0, so LB >= 0).
    _prefix.resize(mn + 1);
    _prefix[0] = 0;
    i64 lb = 0;
    for (u64 c = 0; c < mn; ++c) {
        _prefix[c + 1] = _prefix[c] + _sc.sub(r[c], q[c]);
        lb = std::max(lb, _prefix[c + 1]);
    }
    // One-gap paths, which the array scores too: follow that diagonal
    // for t1 steps, take one run of s insertions (deletions), then
    // compare a[t] with b[t] on the shifted diagonal up to step t2.
    // Only runs the ungapped LB's region admits can raise LB.
    const auto one_gap = [&](const Base *a, const Base *b, u64 len) {
        i64 shifted = 0, lead = 0, best = 0;
        for (u64 t = 0; t < len; ++t) {
            shifted += _sc.sub(a[t], b[t]);
            // lead: max over t1 <= t + 1 of P0(t1) − Ps(t1).
            lead = std::max(lead, _prefix[t + 1] - shifted);
            best = std::max(best, lead + shifted);
        }
        return best;
    };
    u32 ins_max = 0, del_max = 0;
    while (ins_max < _k && scoreCap(n, m, ins_max + 1, 0) >= lb)
        ++ins_max;
    while (del_max < _k && scoreCap(n, m, 0, del_max + 1) >= lb)
        ++del_max;
    // A cap >= LB >= 0 at (s, 0) forces m > s (at (0, s), n > s).
    for (u32 s = 1; s <= ins_max; ++s)
        lb = std::max(lb, one_gap(r.data(), q.data() + s,
                                  std::min(n, m - s)) +
                              _sc.gapCost(static_cast<i32>(s)));
    for (u32 s = 1; s <= del_max; ++s)
        lb = std::max(lb, one_gap(r.data() + s, q.data(),
                                  std::min(n - s, m)) +
                              _sc.gapCost(static_cast<i32>(s)));
    return lb;
}

void
SillaTraceback::buildRegion(u64 n, u64 m, i64 lb)
{
    _dEnd.clear();
    _rowOff.clear();
    _cells = 0;
    _lastCycle = 0;
    // The cap falls in both i and d, so each row's last d never
    // exceeds the row above's and one staircase walk finds them all.
    i64 d = _k;
    for (u32 i = 0; i <= _k; ++i) {
        while (d >= 0 && scoreCap(n, m, i, static_cast<u32>(d)) < lb)
            --d;
        if (d < 0)
            break;
        _rowOff.push_back(static_cast<u32>(_cells));
        _dEnd.push_back(static_cast<u32>(d));
        _cells += static_cast<size_t>(d) + 1;
        // PE (i, d) is live over cycles [i + d, min(n + i, m + d)];
        // the row's last live cycle is its widest PE's.
        _lastCycle = std::max<Cycle>(
            _lastCycle, std::min(n + i, m + static_cast<u64>(d)));
    }
    // PE (0,0) always qualifies: its cap match·min(n, m) >= LB.
    GENAX_DCHECK(!_dEnd.empty(), "empty traceback region");
}

SillaTraceback::StreamBest
SillaTraceback::streamPhase(const Seq &r, const Seq &q)
{
    const u64 n = r.size(), m = q.size();
    const u32 rows = static_cast<u32>(_dEnd.size());
    const size_t cells = _cells;
    if (_plane.size() < (_lastCycle + 1) * cells)
        _plane.resize((_lastCycle + 1) * cells);
    // No lane needs clearing: every cell a cycle reads is one the
    // previous cycle wrote (its E/F sources and its own diagonal are
    // live one cycle earlier), except the diagonal self-read on the
    // fresh anti-diagonal i + d == c, which the frontier fill below
    // resets. Run counters ride the same rule.

    StreamBest best;
    u64 best_rq = 0, best_r = 0;

    auto consider = [&](i32 score, u32 i, u32 d, u64 cell_r, u64 cell_q,
                        Cycle c) {
        if (score < best.score)
            return;
        const u64 rq = cell_r + cell_q;
        if (score > best.score || !best.haveBest || rq < best_rq ||
            (rq == best_rq && cell_r < best_r)) {
            best.score = score;
            best.winI = i;
            best.winD = d;
            best.bestCycle = c;
            best.refEnd = cell_r;
            best.qryEnd = cell_q;
            best_rq = rq;
            best_r = cell_r;
            best.haveBest = true;
        }
    };

    const i32 open_ext = _sc.gapOpen + _sc.gapExtend;
    const i32 gap_ext = _sc.gapExtend;

#if defined(GENAX_SIMD_AVX2)
    // Lean-interior rows can run on the vector row kernel; all tiers
    // are bit-identical by contract, so this is purely a speed choice
    // (and GENAX_FORCE_SCALAR / --kernel pin the scalar reference).
    const bool use_avx2 =
        simd::activeKernelTier() >= simd::KernelTier::Avx2;
#endif

    // --------------------------------------------- Phase 1: streaming
    for (u64 c = 0; c <= _lastCycle; ++c) {
        // Live-cell window. Scores spread from PE (0,0) one
        // neighbour hop per cycle, so cells with i + d > c are still
        // at -inf; cells with i < c - n or d < c - m have run off a
        // sequence end. The dense sweep stores -inf with no adoption
        // and no consider() call there, and collect() never reads a
        // PE's plane outside its live cycles, so the clamped loops
        // visit precisely the cells the dense sweep did anything
        // observable for, in the same (i asc, d asc) order.
        const u64 i_lo = c > n ? c - n : 0;
        const u64 i_hi = std::min<u64>(rows - 1, c);
        if (i_lo > i_hi)
            break; // every row ran off the reference end
        const u64 d_lo = c > m ? c - m : 0;
        u16 *const plane = _plane.data() + c * cells;

        // Frontier fill: the fresh anti-diagonal's diagonal
        // self-reads must see the exact -inf a dark PE holds.
        for (u64 i = i_lo; i <= i_hi; ++i) {
            const u64 d = c - i;
            if (d < d_lo)
                break; // d only shrinks as i grows
            if (d <= _dEnd[i])
                _hCur[at(static_cast<u32>(i), static_cast<u32>(d))] =
                    kNegInf;
        }

        // Guarded cell body for boundary PEs (i == 0, cell_r == 0,
        // d == 0): the reference semantics, -inf checks included.
        const auto cell = [&](u32 i, u32 d) {
            const u64 cell_r = c - i;
            const u64 cell_q = c - d;
            const size_t self = at(i, d);

            i32 e = kNegInf;
            u32 e_run = 0;
            if (i >= 1 && cell_q >= 1) {
                const size_t src = at(i - 1, d);
                i32 open = kNegInf, ext = kNegInf;
                if (_hCur[src] != kNegInf)
                    open = _hCur[src] - open_ext;
                if (_eCur[src] != kNegInf)
                    ext = _eCur[src] - gap_ext;
                if (ext > open) { // open preferred on ties
                    e = ext;
                    e_run = _eRunCur[src] + 1u;
                } else if (open != kNegInf) {
                    e = open;
                    e_run = 1;
                }
            }

            i32 f = kNegInf;
            u32 f_run = 0;
            if (d >= 1 && cell_r >= 1) {
                const size_t src = self - 1;
                i32 open = kNegInf, ext = kNegInf;
                if (_hCur[src] != kNegInf)
                    open = _hCur[src] - open_ext;
                if (_fCur[src] != kNegInf)
                    ext = _fCur[src] - gap_ext;
                if (ext > open) {
                    f = ext;
                    f_run = _fRunCur[src] + 1u;
                } else if (open != kNegInf) {
                    f = open;
                    f_run = 1;
                }
            }

            i32 diag = kNegInf;
            if (cell_r >= 1 && cell_q >= 1 && _hCur[self] != kNegInf)
                diag = _hCur[self] +
                       _sc.sub(r[cell_r - 1], q[cell_q - 1]);

            i32 h;
            u16 code = 0;
            if (c == 0 && i == 0 && d == 0) {
                h = 0;
                code = detail::kSillaAdoptAnchor;
            } else {
                // Precedence on ties: diagonal continuation, then
                // insertion, then deletion (one adoption max).
                h = diag;
                if (e > h) {
                    h = e;
                    code = static_cast<u16>(detail::kSillaAdoptIns |
                                            e_run);
                }
                if (f > h) {
                    h = f;
                    code = static_cast<u16>(detail::kSillaAdoptDel |
                                            f_run);
                }
            }

            _eNext[self] = e;
            _fNext[self] = f;
            _eRunNext[self] = static_cast<u16>(e_run);
            _fRunNext[self] = static_cast<u16>(f_run);
            _hNext[self] = h;
            plane[self] = code;
            if (h != kNegInf)
                consider(h, i, d, cell_r, cell_q, c);
        };

#if defined(GENAX_SIMD_AVX2)
        // Vector path: one kernel invocation sweeps every lean row of
        // the cycle (amortizing the broadcast setup that dominates a
        // per-row call), after all guarded boundary cells have run.
        // Hoisting the guarded cells ahead of the lean sweep cannot
        // change any output: within one cycle the best-cell update is
        // order-independent (see silla_stream_row.hh), and each cell
        // owns its plane entry.
        if (use_avx2) {
            for (u64 i = i_lo; i <= i_hi; ++i) {
                const u64 d_hi = std::min<u64>(_dEnd[i], c - i);
                if (i == 0 || c == i) {
                    for (u64 d = d_lo; d <= d_hi; ++d)
                        cell(static_cast<u32>(i), static_cast<u32>(d));
                } else if (d_lo == 0) {
                    cell(static_cast<u32>(i), 0); // a lean row's d == 0
                }
            }
            const u64 lean_lo = std::max<u64>(i_lo, 1);
            const u64 lean_hi = std::min<u64>(i_hi, c - 1);
            if (c >= 1 && lean_lo <= lean_hi) {
                const detail::SillaCycleCtx ctx{
                    _hCur.data(),    _eCur.data(),     _fCur.data(),
                    _hNext.data(),   _eNext.data(),    _fNext.data(),
                    _eRunCur.data(), _eRunNext.data(), _fRunCur.data(),
                    _fRunNext.data(), plane,           _rowOff.data(),
                    _dEnd.data(),    r.data(),         q.data(),
                    c,               open_ext,         gap_ext,
                    _sc.match,       _sc.mismatch,     best.score};
                _rowEvents.clear();
                detail::sillaStreamCycleAvx2(
                    ctx, static_cast<u32>(lean_lo),
                    static_cast<u32>(lean_hi),
                    static_cast<u32>(std::max<u64>(d_lo, 1)),
                    _rowEvents);
                for (const auto &ev : _rowEvents)
                    consider(_hNext[at(ev.i, ev.d)], ev.i, ev.d,
                             c - ev.i, c - ev.d, c);
            }
            std::swap(_hCur, _hNext);
            std::swap(_eCur, _eNext);
            std::swap(_fCur, _fNext);
            std::swap(_eRunCur, _eRunNext);
            std::swap(_fRunCur, _fRunNext);
            continue;
        }
#endif
        for (u64 i = i_lo; i <= i_hi; ++i) {
            const u64 cell_r = c - i;
            const u64 d_hi = std::min<u64>(_dEnd[i], cell_r);
            if (d_hi < d_lo)
                break; // spans only shrink as i grows
            if (i == 0 || cell_r == 0) {
                for (u64 d = d_lo; d <= d_hi; ++d)
                    cell(static_cast<u32>(i), static_cast<u32>(d));
                continue;
            }
            u64 d = d_lo;
            if (d == 0) {
                cell(static_cast<u32>(i), 0);
                d = 1;
            }
            // Lean interior: i >= 1 and d >= 1 with cell_r >= 1 and
            // cell_q >= 1 (d <= c - i implies c - d >= i >= 1), so
            // every H source — (i-1,d), (i,d-1) and, one diagonal
            // hop back, (i,d) itself — is inside the live window and
            // holds either a real score or the exact -inf fill.
            // Arithmetic on an exact -inf source yields a value
            // hundreds of millions below any reachable score, so the
            // unguarded max/compare chain picks the same winners,
            // latches the same adoptions and stores the same (real)
            // values as the guarded body.
            const size_t row = _rowOff[i];
            const size_t above = _rowOff[i - 1];
            for (; d <= d_hi; ++d) {
                const size_t self = row + d;
                const size_t srcE = above + d;
                const size_t srcF = self - 1;

                const i32 openE = _hCur[srcE] - open_ext;
                const i32 extE = _eCur[srcE] - gap_ext;
                i32 e;
                u32 e_run;
                if (extE > openE) { // open preferred on ties
                    e = extE;
                    e_run = _eRunCur[srcE] + 1u;
                } else {
                    e = openE;
                    e_run = 1;
                }

                const i32 openF = _hCur[srcF] - open_ext;
                const i32 extF = _fCur[srcF] - gap_ext;
                i32 f;
                u32 f_run;
                if (extF > openF) {
                    f = extF;
                    f_run = _fRunCur[srcF] + 1u;
                } else {
                    f = openF;
                    f_run = 1;
                }

                const u64 cell_q = c - d;
                const i32 diag =
                    _hCur[self] + _sc.sub(r[cell_r - 1],
                                          q[cell_q - 1]);

                i32 h = diag;
                u16 code = 0;
                if (e > h) {
                    h = e;
                    code = static_cast<u16>(detail::kSillaAdoptIns |
                                            e_run);
                }
                if (f > h) {
                    h = f;
                    code = static_cast<u16>(detail::kSillaAdoptDel |
                                            f_run);
                }

                _eNext[self] = e;
                _fNext[self] = f;
                _eRunNext[self] = static_cast<u16>(e_run);
                _fRunNext[self] = static_cast<u16>(f_run);
                _hNext[self] = h;
                plane[self] = code;
                consider(h, static_cast<u32>(i), static_cast<u32>(d),
                         cell_r, cell_q, c);
            }
        }
        std::swap(_hCur, _hNext);
        std::swap(_eCur, _eNext);
        std::swap(_fCur, _fNext);
        std::swap(_eRunCur, _eRunNext);
        std::swap(_fRunCur, _fRunNext);
    }
    return best;
}

SillaAlignment
SillaTraceback::collect(const Seq &r, const Seq &q,
                        const StreamBest &best)
{
    const u64 n = r.size(), m = q.size();

    SillaAlignment res;
    res.score = best.score;
    res.refEnd = best.refEnd;
    res.qryEnd = best.qryEnd;
    // Stats describe the K-deep hardware array regardless of how
    // small a region sufficed to compute its outputs: the machine
    // streams min(n, m) + K + 1 cycles whether or not the far PEs
    // ever hold a live score.
    const Cycle full_cycle = std::min(n, m) + _k;
    res.stats.streamCycles = full_cycle + 1;
    // Phases 2-4: best-score back-propagation, winner announcement,
    // path flagging — each sweeps the K-deep grid.
    res.stats.reduceCycles = 3 * _k;

    // ------------------------------------------- Phase 5: collection
    if (!best.haveBest || best.score <= 0) {
        res.score = 0;
        res.refEnd = 0;
        res.qryEnd = 0;
        if (m > 0)
            res.cigar.push(CigarOp::SoftClip, static_cast<u32>(m));
        return res;
    }

    // The hardware registers reflect the machine state as of
    // machine_time. Consulting a PE whose pointer record was
    // overwritten after the cycle we need is a broken pointer trail:
    // re-execute phase 1 truncated to that cycle (Section IV-C).
    Cycle machine_time = full_cycle;
    bool first_segment = true;
    u64 path_pes = 0;

    auto rerun_to = [&](Cycle t) {
        ++res.stats.reruns;
        res.stats.rerunCycles += t + 1;
        machine_time = t;
    };

    // Plane reads stay inside a PE's live cycles
    // [i + d, min(n + i, m + d)]: the sweep wrote every one of those
    // entries this job, and a dark PE never adopts, so nothing older
    // than this job is ever read.
    const auto plane_at = [&](Cycle c, u32 i, u32 d) {
        return _plane[c * _cells + at(i, d)];
    };
    // Last adoption of the PE at cycle <= t (the register view after
    // any necessary re-run), as {cycle, code}.
    const auto record_at = [&](u32 i, u32 d, Cycle t) {
        GENAX_DCHECK(t >= Cycle{i} + d && t <= std::min(n + i, m + d),
                     "path visits PE (", i, ",", d, ") at dark cycle ",
                     t);
        for (Cycle c = t;; --c) {
            if (const u16 code = plane_at(c, i, d))
                return std::pair{c, code};
            GENAX_CHECK(c > Cycle{i} + d,
                        "no adoption at or before cycle ", t);
        }
    };
    // Did the PE adopt in cycles (lo_excl, hi_incl]?
    const auto adopted_in = [&](u32 i, u32 d, Cycle lo_excl,
                                Cycle hi_incl) {
        const Cycle last = std::min({hi_incl, n + i, m + d});
        for (Cycle c = lo_excl + 1; c <= last; ++c)
            if (plane_at(c, i, d))
                return true;
        return false;
    };

    Cigar rev; // built back-to-front
    u32 pi = best.winI, pd = best.winD;
    Cycle t = best.bestCycle;
    for (;;) {
        if (!first_segment && adopted_in(pi, pd, t, machine_time))
            rerun_to(t);
        first_segment = false;
        ++path_pes;

        const auto [rec_cycle, code] = record_at(pi, pd, t);
        // Diagonal (match/substitution) run back to the adoption,
        // re-expanded from the strings (match-count compression).
        for (Cycle c = t; c > rec_cycle; --c) {
            const u64 cell_r = c - pi, cell_q = c - pd;
            GENAX_CHECK(cell_r >= 1 && cell_q >= 1,
                         "diagonal step at matrix edge");
            rev.push(r[cell_r - 1] == q[cell_q - 1] ? CigarOp::Match
                                                    : CigarOp::Mismatch);
        }

        const u16 src = code & detail::kSillaAdoptSrcMask;
        if (src == detail::kSillaAdoptAnchor) {
            GENAX_CHECK(rec_cycle == pi && rec_cycle == pd,
                         "anchor reached off the origin cell");
            break;
        }
        const u32 gap_len = code & detail::kSillaAdoptRunMask;
        GENAX_CHECK(gap_len >= 1, "edit adoption without a gap run");
        if (src == detail::kSillaAdoptIns) {
            GENAX_CHECK(pi >= gap_len, "Ins run exceeds grid");
            rev.push(CigarOp::Ins, gap_len);
            pi -= gap_len;
        } else {
            GENAX_CHECK(pd >= gap_len, "Del run exceeds grid");
            rev.push(CigarOp::Del, gap_len);
            pd -= gap_len;
        }
        GENAX_CHECK(rec_cycle >= gap_len, "gap run precedes cycle 0");
        t = rec_cycle - gap_len;
    }

    rev.reverse();
    res.cigar = std::move(rev);
    if (res.qryEnd < m)
        res.cigar.push(CigarOp::SoftClip,
                       static_cast<u32>(m - res.qryEnd));
    res.stats.collectCycles = path_pes + _k;
    return res;
}

} // namespace genax
