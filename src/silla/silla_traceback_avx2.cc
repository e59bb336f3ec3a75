/**
 * @file
 * AVX2 tier of the Silla traceback streaming cycle kernel (compiled
 * with -mavx2; only dispatched to on CPUs that support it).
 *
 * Eight d-adjacent PEs per vector, all lean rows of one cycle per
 * call so the broadcast constants are set up once. All five lanes
 * (H, E, F and the two gap-run counters) are updated with the same
 * i32 arithmetic and tie-breaks as the scalar lean path, and the
 * eight adoption codes land in the plane with one packed store. Only
 * the rare cells reaching the caller's best score are extracted,
 * through a movemask, so the fast path is branch-free.
 */

#include "silla/silla_stream_row.hh"

#include <algorithm>
#include <cstring>

#include <immintrin.h>

namespace genax::detail {

void
sillaStreamCycleAvx2(const SillaCycleCtx &x, u32 iBegin, u32 iEnd,
                     u32 dBegin, std::vector<SillaRowEvent> &events)
{
    const __m256i v_open_ext = _mm256_set1_epi32(x.openExt);
    const __m256i v_gap_ext = _mm256_set1_epi32(x.gapExt);
    const __m256i v_one = _mm256_set1_epi32(1);
    const __m256i v_match = _mm256_set1_epi32(x.match);
    const __m256i v_mis = _mm256_set1_epi32(-x.mismatch);
    // threshold >= 0, so threshold - 1 cannot underflow; h > t-1 is
    // exactly h >= threshold.
    const __m256i v_thr = _mm256_set1_epi32(x.threshold - 1);
    const __m256i v_ins = _mm256_set1_epi32(kSillaAdoptIns);
    const __m256i v_del = _mm256_set1_epi32(kSillaAdoptDel);

    for (u32 i = iBegin; i <= iEnd; ++i) {
        const u64 cell_r = x.c - i;
        const u32 d_end = static_cast<u32>(
            std::min<u64>(x.dEnd[i], x.c - i));
        if (d_end < dBegin)
            break; // spans only shrink as i grows
        const size_t row = x.rowOff[i];
        // The row above is at least as wide (region rows never grow),
        // so every E source (i-1, d) of this span is inside it.
        const size_t above = x.rowOff[i - 1];
        const u8 r_char = x.r[cell_r - 1];
        const __m256i v_r = _mm256_set1_epi32(r_char);

        u32 d = dBegin;
        for (; d + 7 <= d_end; d += 8) {
            const size_t self = row + d;
            const size_t src_e = above + d;
            const size_t src_f = self - 1;

            // E lane: vertical sources, d-contiguous in the row
            // above.
            const __m256i h_e = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(x.hCur + src_e));
            const __m256i e_e = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(x.eCur + src_e));
            const __m256i open_e = _mm256_sub_epi32(h_e, v_open_ext);
            const __m256i ext_e = _mm256_sub_epi32(e_e, v_gap_ext);
            // Extension wins only strictly (open preferred on ties).
            const __m256i m_e = _mm256_cmpgt_epi32(ext_e, open_e);
            const __m256i e = _mm256_blendv_epi8(open_e, ext_e, m_e);
            const __m256i run_src_e = _mm256_cvtepu16_epi32(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    x.eRunCur + src_e)));
            const __m256i e_run = _mm256_blendv_epi8(
                v_one, _mm256_add_epi32(run_src_e, v_one), m_e);

            // F lane: horizontal sources, shifted one cell left.
            const __m256i h_f = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(x.hCur + src_f));
            const __m256i f_f = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(x.fCur + src_f));
            const __m256i open_f = _mm256_sub_epi32(h_f, v_open_ext);
            const __m256i ext_f = _mm256_sub_epi32(f_f, v_gap_ext);
            const __m256i m_f = _mm256_cmpgt_epi32(ext_f, open_f);
            const __m256i f = _mm256_blendv_epi8(open_f, ext_f, m_f);
            const __m256i run_src_f = _mm256_cvtepu16_epi32(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    x.fRunCur + src_f)));
            const __m256i f_run = _mm256_blendv_epi8(
                v_one, _mm256_add_epi32(run_src_f, v_one), m_f);

            // Diagonal: cell_q = c - d decreases across the lanes,
            // so the eight query characters are a byte-reversed
            // 8-byte load. (Lean lanes have cell_q >= 1, hence
            // c - d - 8 >= 0 for the block's base d.)
            const __m256i h_s = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(x.hCur + self));
            u64 qb;
            std::memcpy(&qb, x.q + (x.c - d - 8), 8);
            const __m256i qv = _mm256_cvtepu8_epi32(
                _mm_cvtsi64_si128(
                    static_cast<long long>(__builtin_bswap64(qb))));
            const __m256i subv = _mm256_blendv_epi8(
                v_mis, v_match, _mm256_cmpeq_epi32(qv, v_r));
            const __m256i diag = _mm256_add_epi32(h_s, subv);

            // Adoption precedence: diagonal, then Ins (E), then Del
            // (F).
            const __m256i adopt_e = _mm256_cmpgt_epi32(e, diag);
            const __m256i h1 = _mm256_max_epi32(diag, e);
            const __m256i adopt_f = _mm256_cmpgt_epi32(f, h1);
            const __m256i h = _mm256_max_epi32(h1, f);

            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(x.eNext + self), e);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(x.fNext + self), f);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(x.hNext + self), h);
            // Runs are bounded by K <= 4095, far below the packus
            // saturation point.
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(x.eRunNext + self),
                _mm_packus_epi32(
                    _mm256_castsi256_si128(e_run),
                    _mm256_extracti128_si256(e_run, 1)));
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(x.fRunNext + self),
                _mm_packus_epi32(
                    _mm256_castsi256_si128(f_run),
                    _mm256_extracti128_si256(f_run, 1)));

            // Adoption codes: Del beats Ins (it beat the larger of
            // diagonal and E), and either carries its run. Codes stay
            // below 0x9000, far from the packus saturation point.
            const __m256i code = _mm256_blendv_epi8(
                _mm256_and_si256(adopt_e,
                                 _mm256_or_si256(e_run, v_ins)),
                _mm256_or_si256(f_run, v_del), adopt_f);
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(x.plane + self),
                _mm_packus_epi32(_mm256_castsi256_si128(code),
                                 _mm256_extracti128_si256(code, 1)));

            u32 cm = static_cast<u32>(
                _mm256_movemask_ps(_mm256_castsi256_ps(
                    _mm256_cmpgt_epi32(h, v_thr))));
            for (; cm != 0; cm &= cm - 1)
                events.push_back(
                    {i, d + static_cast<u32>(__builtin_ctz(cm))});
        }

        // Scalar tail for the last (d_end - d + 1) < 8 lanes — the
        // same arithmetic, lane by lane.
        for (; d <= d_end; ++d) {
            const size_t self = row + d;
            const size_t src_e = above + d;
            const size_t src_f = self - 1;

            const i32 open_e = x.hCur[src_e] - x.openExt;
            const i32 ext_e = x.eCur[src_e] - x.gapExt;
            i32 e;
            u32 e_run;
            if (ext_e > open_e) {
                e = ext_e;
                e_run = x.eRunCur[src_e] + 1u;
            } else {
                e = open_e;
                e_run = 1;
            }

            const i32 open_f = x.hCur[src_f] - x.openExt;
            const i32 ext_f = x.fCur[src_f] - x.gapExt;
            i32 f;
            u32 f_run;
            if (ext_f > open_f) {
                f = ext_f;
                f_run = x.fRunCur[src_f] + 1u;
            } else {
                f = open_f;
                f_run = 1;
            }

            const u64 cell_q = x.c - d;
            const i32 diag =
                x.hCur[self] +
                (x.q[cell_q - 1] == r_char ? x.match : -x.mismatch);

            i32 h = diag;
            u16 code = 0;
            if (e > h) {
                h = e;
                code = static_cast<u16>(kSillaAdoptIns | e_run);
            }
            if (f > h) {
                h = f;
                code = static_cast<u16>(kSillaAdoptDel | f_run);
            }

            x.eNext[self] = e;
            x.fNext[self] = f;
            x.eRunNext[self] = static_cast<u16>(e_run);
            x.fRunNext[self] = static_cast<u16>(f_run);
            x.hNext[self] = h;
            x.plane[self] = code;
            if (h >= x.threshold)
                events.push_back({i, d});
        }
    }
}

} // namespace genax::detail
