#include "align/gotoh.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace genax {

namespace {

constexpr i32 kNegInf = INT32_MIN / 4;

// Direction byte layout: bits 0-1 = H source, bit 2 = E extends,
// bit 3 = F extends.
enum HSrc : u8
{
    kDiag = 0,
    kFromE = 1,
    kFromF = 2,
    kStop = 3,
};

constexpr u8 kEExtBit = 1 << 2;
constexpr u8 kFExtBit = 1 << 3;

HSrc hSrc(u8 d) { return static_cast<HSrc>(d & 3); }

struct BestCell
{
    i32 score = kNegInf;
    u64 i = 0;
    u64 j = 0;

    /** Deterministic preference: higher score, then shorter, then
     *  fewer reference characters. */
    void
    consider(i32 s, u64 ci, u64 cj)
    {
        if (s > score ||
            (s == score && (ci + cj < i + j ||
                            (ci + cj == i + j && ci < i)))) {
            score = s;
            i = ci;
            j = cj;
        }
    }
};

/**
 * Shared traceback walker. dir_at(i, j) must return the direction
 * byte for a cell that was computed; it is only called on the path.
 * RefT is any random-access base container (Seq or PackedSeq).
 */
template <typename RefT, typename DirFn>
AlignResult
traceback(const RefT &ref, const Seq &qry, AlignMode mode, i32 best,
          u64 bi, u64 bj, DirFn dir_at)
{
    AlignResult res;
    res.valid = true;
    res.score = best;
    res.refEnd = bi;
    res.qryEnd = bj;

    Cigar path;
    enum class St { H, E, F } st = St::H;
    u64 i = bi, j = bj;
    for (;;) {
        if (st == St::H) {
            const u8 d = dir_at(i, j);
            const HSrc s = hSrc(d);
            if (s == kStop)
                break;
            if (s == kDiag) {
                GENAX_ASSERT(i > 0 && j > 0, "diag traceback underflow");
                path.push(ref[i - 1] == qry[j - 1] ? CigarOp::Match
                                                   : CigarOp::Mismatch);
                --i;
                --j;
            } else if (s == kFromE) {
                st = St::E;
            } else {
                st = St::F;
            }
        } else if (st == St::E) {
            GENAX_ASSERT(j > 0, "E traceback underflow");
            const bool ext = dir_at(i, j) & kEExtBit;
            path.push(CigarOp::Ins);
            --j;
            if (!ext)
                st = St::H;
        } else {
            GENAX_ASSERT(i > 0, "F traceback underflow");
            const bool ext = dir_at(i, j) & kFExtBit;
            path.push(CigarOp::Del);
            --i;
            if (!ext)
                st = St::H;
        }
    }
    res.refBegin = i;
    res.qryBegin = j;
    path.reverse();

    Cigar full;
    if (res.qryBegin > 0)
        full.push(CigarOp::SoftClip, static_cast<u32>(res.qryBegin));
    full.append(path);
    if (res.qryEnd < qry.size())
        full.push(CigarOp::SoftClip,
                  static_cast<u32>(qry.size() - res.qryEnd));
    res.cigar = std::move(full);

    // Anchored modes must trace back to the origin.
    if (mode != AlignMode::Local) {
        GENAX_ASSERT(res.refBegin == 0 && res.qryBegin == 0,
                     "anchored traceback did not reach origin");
    }
    return res;
}

} // namespace

AlignResult
gotohAlign(const Seq &ref, const Seq &qry, const Scoring &sc,
           AlignMode mode)
{
    const u64 n = ref.size(), m = qry.size();
    const u64 cols = m + 1;
    const bool local = mode == AlignMode::Local;

    std::vector<u8> dir((n + 1) * cols, kStop);
    std::vector<i32> hPrev(cols), hCur(cols);
    std::vector<i32> fPrev(cols, kNegInf), fCur(cols, kNegInf);

    BestCell best;

    // Row 0.
    hPrev[0] = 0;
    best.consider(0, 0, 0);
    for (u64 j = 1; j <= m; ++j) {
        if (local) {
            hPrev[j] = 0;
        } else {
            hPrev[j] = sc.gapCost(static_cast<i32>(j));
            dir[j] = kFromE | (j > 1 ? kEExtBit : 0);
        }
        best.consider(hPrev[j], 0, j);
    }

    for (u64 i = 1; i <= n; ++i) {
        i32 e = kNegInf;
        if (local) {
            hCur[0] = 0;
            dir[i * cols] = kStop;
        } else {
            hCur[0] = sc.gapCost(static_cast<i32>(i));
            dir[i * cols] = kFromF | (i > 1 ? kFExtBit : 0);
        }
        fCur[0] = kNegInf;
        best.consider(hCur[0], i, 0);

        for (u64 j = 1; j <= m; ++j) {
            // E: gap consuming the query (insertion run).
            const i32 eOpen = hCur[j - 1] - sc.gapOpen - sc.gapExtend;
            const i32 eExt = e == kNegInf ? kNegInf : e - sc.gapExtend;
            const bool eIsExt = eExt > eOpen;
            e = std::max(eOpen, eExt);

            // F: gap consuming the reference (deletion run).
            const i32 fOpen = hPrev[j] - sc.gapOpen - sc.gapExtend;
            const i32 fExt =
                fPrev[j] == kNegInf ? kNegInf : fPrev[j] - sc.gapExtend;
            const bool fIsExt = fExt > fOpen;
            fCur[j] = std::max(fOpen, fExt);

            const i32 diag = hPrev[j - 1] + sc.sub(ref[i - 1], qry[j - 1]);

            i32 h = diag;
            u8 d = kDiag;
            if (e > h) {
                h = e;
                d = kFromE;
            }
            if (fCur[j] > h) {
                h = fCur[j];
                d = kFromF;
            }
            if (local && h <= 0) {
                h = 0;
                d = kStop;
            }
            hCur[j] = h;
            dir[i * cols + j] = static_cast<u8>(
                d | (eIsExt ? kEExtBit : 0) | (fIsExt ? kFExtBit : 0));
            best.consider(h, i, j);
        }
        std::swap(hPrev, hCur);
        std::swap(fPrev, fCur);
    }

    u64 bi, bj;
    i32 bscore;
    if (mode == AlignMode::Global) {
        bi = n;
        bj = m;
        bscore = hPrev[m];
    } else {
        bi = best.i;
        bj = best.j;
        bscore = best.score;
    }
    return traceback(ref, qry, mode, bscore, bi, bj,
                     [&](u64 i, u64 j) { return dir[i * cols + j]; });
}

namespace {

/**
 * Banded Gotoh over any random-access reference container; the 2-bit
 * PackedSeq instantiation keeps the reference window in ~1/4 of the
 * cache footprint on the extension fallback path.
 */
template <typename RefT>
AlignResult
gotohBandedImpl(const RefT &ref, const Seq &qry, const Scoring &sc,
                AlignMode mode, u32 band)
{
    const i64 n = static_cast<i64>(ref.size());
    const i64 m = static_cast<i64>(qry.size());
    const i64 w = band;
    const i64 width = 2 * w + 1;
    const bool local = mode == AlignMode::Local;

    if (mode == AlignMode::Global && std::abs(n - m) > w)
        return {};

    // Band storage: row i holds columns j in [i-w, i+w]; band column
    // index is j - i + w.
    std::vector<u8> dir(static_cast<size_t>(n + 1) * width, kStop);
    auto dir_at = [&](u64 i, u64 j) {
        const i64 col = static_cast<i64>(j) - static_cast<i64>(i) + w;
        GENAX_ASSERT(col >= 0 && col < width, "traceback left the band");
        return dir[i * width + col];
    };
    auto dir_set = [&](i64 i, i64 j, u8 v) {
        dir[static_cast<size_t>(i) * width + (j - i + w)] = v;
    };

    std::vector<i32> hPrev(width, kNegInf), hCur(width, kNegInf);
    std::vector<i32> fPrev(width, kNegInf), fCur(width, kNegInf);

    BestCell best;

    // Row 0: columns 0..min(m, w), band col = j + w... for i=0 the
    // band col of j is j + w - 0? No: j - 0 + w = j + w; but j <= w
    // keeps it < width only for j <= w. Row 0 covers j in [0, w].
    for (i64 j = 0; j <= std::min(m, w); ++j) {
        const i64 col = j + w;
        if (col >= width)
            break;
        if (local || j == 0) {
            hPrev[col] = 0;
        } else {
            hPrev[col] = sc.gapCost(static_cast<i32>(j));
            dir_set(0, j, static_cast<u8>(kFromE | (j > 1 ? kEExtBit : 0)));
        }
        best.consider(hPrev[col], 0, static_cast<u64>(j));
    }

    for (i64 i = 1; i <= n; ++i) {
        std::fill(hCur.begin(), hCur.end(), kNegInf);
        std::fill(fCur.begin(), fCur.end(), kNegInf);
        const i64 jlo = std::max<i64>(0, i - w);
        const i64 jhi = std::min(m, i + w);
        i32 e = kNegInf;
        for (i64 j = jlo; j <= jhi; ++j) {
            const i64 col = j - i + w;
            if (j == 0) {
                if (local) {
                    hCur[col] = 0;
                    dir_set(i, 0, kStop);
                } else {
                    hCur[col] = sc.gapCost(static_cast<i32>(i));
                    dir_set(i, 0, static_cast<u8>(
                                kFromF | (i > 1 ? kFExtBit : 0)));
                }
                best.consider(hCur[col], static_cast<u64>(i), 0);
                continue;
            }

            // E from (i, j-1): band col-1 in the same row.
            i32 eOpen = kNegInf, eExt = kNegInf;
            if (col - 1 >= 0) {
                if (hCur[col - 1] != kNegInf)
                    eOpen = hCur[col - 1] - sc.gapOpen - sc.gapExtend;
                if (e != kNegInf)
                    eExt = e - sc.gapExtend;
            }
            const bool eIsExt = eExt > eOpen;
            e = std::max(eOpen, eExt);

            // F from (i-1, j): band col+1 in the previous row.
            i32 fOpen = kNegInf, fExt = kNegInf;
            if (col + 1 < width) {
                if (hPrev[col + 1] != kNegInf)
                    fOpen = hPrev[col + 1] - sc.gapOpen - sc.gapExtend;
                if (fPrev[col + 1] != kNegInf)
                    fExt = fPrev[col + 1] - sc.gapExtend;
            }
            const bool fIsExt = fExt > fOpen;
            fCur[col] = std::max(fOpen, fExt);

            // Diagonal from (i-1, j-1): same band col in previous row.
            i32 diag = kNegInf;
            if (hPrev[col] != kNegInf)
                diag = hPrev[col] + sc.sub(ref[i - 1], qry[j - 1]);

            i32 h = diag;
            u8 d = kDiag;
            if (e > h) {
                h = e;
                d = kFromE;
            }
            if (fCur[col] > h) {
                h = fCur[col];
                d = kFromF;
            }
            if (h == kNegInf)
                continue; // unreachable cell
            if (local && h <= 0) {
                h = 0;
                d = kStop;
            }
            hCur[col] = h;
            dir_set(i, j, static_cast<u8>(
                        d | (eIsExt ? kEExtBit : 0) |
                        (fIsExt ? kFExtBit : 0)));
            best.consider(h, static_cast<u64>(i), static_cast<u64>(j));
        }
        std::swap(hPrev, hCur);
        std::swap(fPrev, fCur);
    }

    u64 bi, bj;
    i32 bscore;
    if (mode == AlignMode::Global) {
        const i64 col = m - n + w;
        if (col < 0 || col >= width || hPrev[col] == kNegInf)
            return {};
        bi = static_cast<u64>(n);
        bj = static_cast<u64>(m);
        bscore = hPrev[col];
    } else {
        if (best.score == kNegInf)
            return {};
        bi = best.i;
        bj = best.j;
        bscore = best.score;
    }
    return traceback(ref, qry, mode, bscore, bi, bj, dir_at);
}

/**
 * Extend-mode banded pass tracking the BestCell argmax but storing no
 * directions. Mirrors gotohBandedImpl (Extend) cell for cell, so the
 * returned triple matches the full run exactly — including the
 * deterministic tie-break order of BestCell::consider.
 */
template <typename RefT>
BandedExtendScore
gotohBandedExtendScoreImpl(const RefT &ref, const Seq &qry,
                           const Scoring &sc, u32 band)
{
    const i64 n = static_cast<i64>(ref.size());
    const i64 m = static_cast<i64>(qry.size());
    const i64 w = band;
    const i64 width = 2 * w + 1;

    std::vector<i32> hPrev(width, kNegInf), hCur(width, kNegInf);
    std::vector<i32> fPrev(width, kNegInf), fCur(width, kNegInf);

    BestCell best;
    for (i64 j = 0; j <= std::min(m, w); ++j) {
        const i64 col = j + w;
        if (col >= width)
            break;
        hPrev[col] = j == 0 ? 0 : sc.gapCost(static_cast<i32>(j));
        best.consider(hPrev[col], 0, static_cast<u64>(j));
    }
    for (i64 i = 1; i <= n; ++i) {
        std::fill(hCur.begin(), hCur.end(), kNegInf);
        std::fill(fCur.begin(), fCur.end(), kNegInf);
        const i64 jlo = std::max<i64>(0, i - w);
        const i64 jhi = std::min(m, i + w);
        i32 e = kNegInf;
        for (i64 j = jlo; j <= jhi; ++j) {
            const i64 col = j - i + w;
            if (j == 0) {
                hCur[col] = sc.gapCost(static_cast<i32>(i));
                best.consider(hCur[col], static_cast<u64>(i), 0);
                continue;
            }
            i32 eOpen = kNegInf, eExt = kNegInf;
            if (col - 1 >= 0) {
                if (hCur[col - 1] != kNegInf)
                    eOpen = hCur[col - 1] - sc.gapOpen - sc.gapExtend;
                if (e != kNegInf)
                    eExt = e - sc.gapExtend;
            }
            e = std::max(eOpen, eExt);

            i32 fOpen = kNegInf, fExt = kNegInf;
            if (col + 1 < width) {
                if (hPrev[col + 1] != kNegInf)
                    fOpen = hPrev[col + 1] - sc.gapOpen - sc.gapExtend;
                if (fPrev[col + 1] != kNegInf)
                    fExt = fPrev[col + 1] - sc.gapExtend;
            }
            fCur[col] = std::max(fOpen, fExt);

            i32 diag = kNegInf;
            if (hPrev[col] != kNegInf)
                diag = hPrev[col] + sc.sub(ref[i - 1], qry[j - 1]);

            const i32 h = std::max({diag, e, fCur[col]});
            if (h == kNegInf)
                continue; // unreachable cell
            hCur[col] = h;
            best.consider(h, static_cast<u64>(i), static_cast<u64>(j));
        }
        std::swap(hPrev, hCur);
        std::swap(fPrev, fCur);
    }
    return {best.score, best.i, best.j};
}

} // namespace

AlignResult
gotohBanded(const Seq &ref, const Seq &qry, const Scoring &sc,
            AlignMode mode, u32 band)
{
    return gotohBandedImpl(ref, qry, sc, mode, band);
}

AlignResult
gotohBanded(const PackedSeq &ref, const Seq &qry, const Scoring &sc,
            AlignMode mode, u32 band)
{
    return gotohBandedImpl(ref, qry, sc, mode, band);
}

BandedExtendScore
gotohBandedExtendScore(const Seq &ref, const Seq &qry, const Scoring &sc,
                       u32 band)
{
    return gotohBandedExtendScoreImpl(ref, qry, sc, band);
}

BandedExtendScore
gotohBandedExtendScore(const PackedSeq &ref, const Seq &qry,
                       const Scoring &sc, u32 band)
{
    return gotohBandedExtendScoreImpl(ref, qry, sc, band);
}

} // namespace genax
