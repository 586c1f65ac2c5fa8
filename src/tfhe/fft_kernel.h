/**
 * @file
 * Internal: the one body of the bootstrap's inner kernels, included by the
 * three tier TUs (see fft_batch_kernels.h). Everything here has internal
 * linkage, so each TU keeps the copy compiled with its own ISA flags.
 *
 * A tier is a class `O` with a vector type `V` of `kWidth` doubles and
 * static Load/Store/Set1/Add/Sub/Mul, StoreRounded and AddRounded (the
 * low 32 bits of each lane's bit pattern, stored or added), a word vector
 * `W` of kWidth 32-bit integers with LoadWords/SetWords/AddWords/SubWords
 * and Digits (one shifted, masked and recentred digit per word, converted
 * to double), and, for kWidth > 1,
 * the in-register stages TailForward (DIF half-sizes kWidth/2 .. 1) and
 * HeadInverse (DIT 1 .. kWidth/2) on one block of kWidth slots, built
 * from the plan's twiddles.
 *
 * Forward: twist, then DIF stages from half-size h/2 down to 1, two per
 * pass (radix-2^2) with the twist fused into the first pass and the
 * in-register stages into the last. Slots come out bit-reversed.
 * Inverse: DIT stages from half-size 1 up to h/2 on bit-reversed slots,
 * two per pass, with the untwist and the rounding fused into the last.
 * Fusing stages changes no element's expressions, so the per-element
 * rounding equals plain radix-2 and tiers may group stages differently.
 * The half-size-1 stage multiplies by no twiddle.
 *
 * Around the transform: ForwardDigits computes gadget digits (optionally
 * of the rotation difference (X^rot - 1) * p) inside the forward
 * transform's first pass, MulAcc computes every output column of one
 * lane's key product in one pass with the sums in registers, the inverse
 * can add its result into the accumulator, and KeySwitchWalk is the key
 * switch's integer row walk, autovectorized at the TU's ISA.
 */
#ifndef PYTFHE_TFHE_FFT_KERNEL_H
#define PYTFHE_TFHE_FFT_KERNEL_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "tfhe/fft_batch_kernels.h"

namespace pytfhe::tfhe::batch_detail {
namespace {

/**
 * Round to nearest onto Torus32: x + 1.5 * 2^52 lands in [2^52, 2^53),
 * where the ulp is 1, so the low 32 bits of the sum's bit pattern are the
 * rounded value mod 2^32. Needs |x| < 2^51; external-product sums peak
 * below 2^50.
 */
constexpr double kRoundMagic = 6755399441055744.0;

/** (re, im) *= w. */
template <class O, class V>
inline void Twiddle(V& re, V& im, V wr, V wi) {
    const V r = O::Sub(O::Mul(re, wr), O::Mul(im, wi));
    im = O::Add(O::Mul(re, wi), O::Mul(im, wr));
    re = r;
}

/** (re, im) *= conj(w). */
template <class O, class V>
inline void TwiddleConj(V& re, V& im, V wr, V wi) {
    const V r = O::Add(O::Mul(re, wr), O::Mul(im, wi));
    im = O::Sub(O::Mul(im, wr), O::Mul(re, wi));
    re = r;
}

/** DIF butterfly: (a, b) <- (a + b, (a - b) * w[0]); w null: no twiddle. */
template <class O, class V>
inline void Dif(V& ar, V& ai, V& br, V& bi, const double* wr,
                const double* wi) {
    const V sr = O::Add(ar, br);
    const V si = O::Add(ai, bi);
    br = O::Sub(ar, br);
    bi = O::Sub(ai, bi);
    if (O::kWidth > 1 || wr != nullptr)
        Twiddle<O>(br, bi, O::Load(wr), O::Load(wi));
    ar = sr;
    ai = si;
}

/** DIT butterfly: t = b * conj(w[0]); (a, b) <- (a + t, a - t). */
template <class O, class V>
inline void Dit(V& ar, V& ai, V& br, V& bi, const double* wr,
                const double* wi) {
    if (O::kWidth > 1 || wr != nullptr)
        TwiddleConj<O>(br, bi, O::Load(wr), O::Load(wi));
    const V sr = O::Add(ar, br);
    const V si = O::Add(ai, bi);
    br = O::Sub(ar, br);
    bi = O::Sub(ai, bi);
    ar = sr;
    ai = si;
}

/** The forward transform's input: the packed doubles already in re/im. */
template <class O>
struct PackedInput {
    using V = typename O::V;
    const double* re;
    const double* im;
    void Load(int32_t j, V& r, V& m) const {
        r = O::Load(re + j);
        m = O::Load(im + j);
    }
};

/**
 * One pass of kStages DIF stages over the whole transform: half-sizes 2q
 * and q for two stages, q for one, none for zero (then q = kWidth and the
 * pass only twists and/or runs the in-register stages). kFirst reads slot
 * j's packed values from `in` and twists them; kLast runs the in-register
 * stages before the store.
 */
template <class O, int kStages, bool kFirst, bool kLast, class In>
void ForwardPass(const O& ops, const NegacyclicFft& plan, double* re,
                 double* im, int32_t q, const In& in) {
    using V = typename O::V;
    constexpr int kVecs = 1 << kStages;
    const int32_t h = plan.Half();
    const double* tr = plan.TwistTable().Re();
    const double* ti = plan.TwistTable().Im();
    const double* wr = plan.TwiddleTable().Re();
    const double* wi = plan.TwiddleTable().Im();
    // Only the portable tier (kWidth 1) reaches half-size 1 here.
    const bool unit = O::kWidth == 1 && q == 1;
    for (int32_t base = 0; base < h; base += kVecs * q) {
        for (int32_t k = 0; k < q; k += O::kWidth) {
            V r[kVecs], m[kVecs];
            for (int v = 0; v < kVecs; ++v) {
                const int32_t j = base + k + v * q;
                if constexpr (kFirst) {
                    in.Load(j, r[v], m[v]);
                    // (lo - i*hi) * twist: the X^h -> -i fold.
                    const V c = O::Load(tr + j);
                    const V s = O::Load(ti + j);
                    const V lo = r[v];
                    r[v] = O::Add(O::Mul(lo, c), O::Mul(m[v], s));
                    m[v] = O::Sub(O::Mul(lo, s), O::Mul(m[v], c));
                } else {
                    r[v] = O::Load(re + j);
                    m[v] = O::Load(im + j);
                }
            }
            const double* w1r = unit ? nullptr : wr + q + k;
            const double* w1i = unit ? nullptr : wi + q + k;
            if constexpr (kStages == 2) {
                Dif<O>(r[0], m[0], r[2], m[2], wr + 2 * q + k,
                       wi + 2 * q + k);
                Dif<O>(r[1], m[1], r[3], m[3], wr + 3 * q + k,
                       wi + 3 * q + k);
                Dif<O>(r[0], m[0], r[1], m[1], w1r, w1i);
                Dif<O>(r[2], m[2], r[3], m[3], w1r, w1i);
            } else if constexpr (kStages == 1) {
                Dif<O>(r[0], m[0], r[1], m[1], w1r, w1i);
            }
            for (int v = 0; v < kVecs; ++v) {
                if constexpr (kLast && O::kWidth > 1)
                    ops.TailForward(r[v], m[v]);
                const int32_t j = base + k + v * q;
                O::Store(re + j, r[v]);
                O::Store(im + j, m[v]);
            }
        }
    }
}

/**
 * One pass of kStages DIT stages: half-sizes q and 2q for two, q for one,
 * none for zero (q = kWidth). kFirst runs the in-register stages after the
 * load; kLast untwists and rounds into out[j], out[j + h] instead of
 * storing, adding to them (mod 2^32) when kAdd.
 */
template <class O, int kStages, bool kFirst, bool kLast, bool kAdd>
void InversePass(const O& ops, const NegacyclicFft& plan, double* re,
                 double* im, Torus32* out, int32_t q) {
    using V = typename O::V;
    constexpr int kVecs = 1 << kStages;
    const int32_t h = plan.Half();
    const double* ur = plan.UntwistTable().Re();
    const double* ui = plan.UntwistTable().Im();
    const double* wr = plan.TwiddleTable().Re();
    const double* wi = plan.TwiddleTable().Im();
    const bool unit = O::kWidth == 1 && q == 1;
    const V magic = O::Set1(kRoundMagic);
    for (int32_t base = 0; base < h; base += kVecs * q) {
        for (int32_t k = 0; k < q; k += O::kWidth) {
            V r[kVecs], m[kVecs];
            for (int v = 0; v < kVecs; ++v) {
                const int32_t j = base + k + v * q;
                r[v] = O::Load(re + j);
                m[v] = O::Load(im + j);
                if constexpr (kFirst && O::kWidth > 1)
                    ops.HeadInverse(r[v], m[v]);
            }
            const double* w1r = unit ? nullptr : wr + q + k;
            const double* w1i = unit ? nullptr : wi + q + k;
            if constexpr (kStages == 2) {
                Dit<O>(r[0], m[0], r[1], m[1], w1r, w1i);
                Dit<O>(r[2], m[2], r[3], m[3], w1r, w1i);
                Dit<O>(r[0], m[0], r[2], m[2], wr + 2 * q + k,
                       wi + 2 * q + k);
                Dit<O>(r[1], m[1], r[3], m[3], wr + 3 * q + k,
                       wi + 3 * q + k);
            } else if constexpr (kStages == 1) {
                Dit<O>(r[0], m[0], r[1], m[1], w1r, w1i);
            }
            for (int v = 0; v < kVecs; ++v) {
                const int32_t j = base + k + v * q;
                if constexpr (kLast) {
                    // a_j = slot * untwist; p[j] = Re(a), p[j + h] = -Im(a).
                    const V c = O::Load(ur + j);
                    const V s = O::Load(ui + j);
                    const V ar = O::Sub(O::Mul(r[v], c), O::Mul(m[v], s));
                    const V ai = O::Add(O::Mul(r[v], s), O::Mul(m[v], c));
                    if constexpr (kAdd) {
                        O::AddRounded(out + j, O::Add(ar, magic));
                        O::AddRounded(out + j + h, O::Sub(magic, ai));
                    } else {
                        O::StoreRounded(out + j, O::Add(ar, magic));
                        O::StoreRounded(out + j + h, O::Sub(magic, ai));
                    }
                } else {
                    O::Store(re + j, r[v]);
                    O::Store(im + j, m[v]);
                }
            }
        }
    }
}

/** ForwardPass with kFirst/kLast chosen from runtime flags. */
template <class O, int kStages, class In>
void ForwardPassAt(bool first, bool last, const O& ops,
                   const NegacyclicFft& plan, double* re, double* im,
                   int32_t q, const In& in) {
    if (first && last)
        ForwardPass<O, kStages, true, true>(ops, plan, re, im, q, in);
    else if (first)
        ForwardPass<O, kStages, true, false>(ops, plan, re, im, q, in);
    else if (last)
        ForwardPass<O, kStages, false, true>(ops, plan, re, im, q, in);
    else
        ForwardPass<O, kStages, false, false>(ops, plan, re, im, q, in);
}

/** InversePass with kFirst/kLast chosen from runtime flags. */
template <class O, int kStages, bool kAdd>
void InversePassAt(bool first, bool last, const O& ops,
                   const NegacyclicFft& plan, double* re, double* im,
                   Torus32* out, int32_t q) {
    if (first && last)
        InversePass<O, kStages, true, true, kAdd>(ops, plan, re, im, out, q);
    else if (first)
        InversePass<O, kStages, true, false, kAdd>(ops, plan, re, im, out, q);
    else if (last)
        InversePass<O, kStages, false, true, kAdd>(ops, plan, re, im, out, q);
    else
        InversePass<O, kStages, false, false, kAdd>(ops, plan, re, im, out,
                                                    q);
}

/** log2(h) - log2(kWidth): the stages outside the in-register block. */
template <class O>
int32_t PassStages(int32_t h) {
    return std::countr_zero(static_cast<uint32_t>(h)) -
           std::countr_zero(static_cast<uint32_t>(O::kWidth));
}

/** The forward transform of `in` into re/im. */
template <class O, class In>
void ForwardFrom(const NegacyclicFft& plan, double* re, double* im,
                 const In& in) {
    const O ops(plan);
    const int32_t stages = PassStages<O>(plan.Half());
    if (stages == 0) {
        ForwardPassAt<O, 0>(true, true, ops, plan, re, im, O::kWidth, in);
        return;
    }
    int32_t done = 0;
    int32_t hb = plan.Half() / 2;  // Largest half-size not yet done.
    if (stages % 2 == 1) {
        ForwardPassAt<O, 1>(true, stages == 1, ops, plan, re, im, hb, in);
        hb /= 2;
        done = 1;
    }
    for (; done < stages; done += 2, hb /= 4)
        ForwardPassAt<O, 2>(done == 0, done + 2 == stages, ops, plan, re,
                            im, hb / 2, in);
}

template <class O>
void Forward(const NegacyclicFft& plan, double* re, double* im) {
    ForwardFrom<O>(plan, re, im, PackedInput<O>{re, im});
}

/** The inverse transform; kAdd adds the result into out instead. */
template <class O, bool kAdd>
void Inverse(const NegacyclicFft& plan, double* re, double* im,
             Torus32* out) {
    const O ops(plan);
    const int32_t stages = PassStages<O>(plan.Half());
    if (stages == 0) {
        InversePassAt<O, 0, kAdd>(true, true, ops, plan, re, im, out,
                                  O::kWidth);
        return;
    }
    int32_t done = 0;
    int32_t q = O::kWidth;  // Smallest half-size not yet done.
    for (; done + 2 <= stages; done += 2, q *= 4)
        InversePassAt<O, 2, kAdd>(done == 0, done + 2 == stages, ops, plan,
                                  re, im, out, q);
    if (done < stages)
        InversePassAt<O, 1, kAdd>(done == 0, true, ops, plan, re, im, out,
                                  q);
}

template <class O>
void AddMul(double* rre, double* rim, const double* are, const double* aim,
            const double* bre, const double* bim, int32_t half) {
    using V = typename O::V;
    for (int32_t i = 0; i < half; i += O::kWidth) {
        const V ar = O::Load(are + i), ai = O::Load(aim + i);
        const V br = O::Load(bre + i), bi = O::Load(bim + i);
        O::Store(rre + i, O::Add(O::Load(rre + i),
                                 O::Sub(O::Mul(ar, br), O::Mul(ai, bi))));
        O::Store(rim + i, O::Add(O::Load(rim + i),
                                 O::Add(O::Mul(ar, bi), O::Mul(ai, br))));
    }
}

/**
 * Words [i, i + kWidth) of (X^rot - 1) * p for p of n words, where
 * s = rot mod n and neg says rot mod 2n >= n: (X^rot * p)[i] is
 * +-p[i - s] from i = s on and -+p[i - s + n] below, so a vector that
 * does not straddle s is one contiguous load.
 */
template <class O>
typename O::W RotatedWords(const Torus32* p, int32_t n, int32_t i,
                           int32_t s, bool neg) {
    using W = typename O::W;
    const W zero = O::SetWords(0);
    W r;
    if (i >= s) {
        r = O::LoadWords(p + i - s);
        if (neg) r = O::SubWords(zero, r);
    } else if (i + O::kWidth <= s) {
        r = O::LoadWords(p + i - s + n);
        if (!neg) r = O::SubWords(zero, r);
    } else {
        alignas(64) Torus32 t[O::kWidth];
        for (int32_t m = 0; m < O::kWidth; ++m) {
            const int32_t at = i + m;
            const Torus32 x = at >= s ? p[at - s] : p[at - s + n];
            t[m] = (at >= s) == neg ? -x : x;
        }
        r = O::LoadWords(t);
    }
    return O::SubWords(r, O::LoadWords(p + i));
}

/**
 * The forward transform's input for gadget digit `shift` of coefs, or
 * with kRotate of (X^rot - 1) * coefs: slot j packs the digits of
 * coefficients j and j + h, computed from the torus words on load.
 */
template <class O, bool kRotate>
struct DigitInput {
    using V = typename O::V;
    using W = typename O::W;
    const Torus32* coefs;
    int32_t n, s;  ///< Ring size; rot mod n.
    bool neg;      ///< rot mod 2n >= n.
    int32_t shift;
    W off, mask, half_bg;

    W Words(int32_t i) const {
        if constexpr (kRotate)
            return RotatedWords<O>(coefs, n, i, s, neg);
        else
            return O::LoadWords(coefs + i);
    }
    void Load(int32_t j, V& r, V& m) const {
        r = O::Digits(O::AddWords(Words(j), off), shift, mask, half_bg);
        m = O::Digits(O::AddWords(Words(j + n / 2), off), shift, mask,
                      half_bg);
    }
};

/**
 * The l digit transforms of coefs (kRotate: of (X^rot - 1) * coefs) into
 * dec[0..l), each decomposed inside its transform's first pass.
 */
template <class O, bool kRotate>
void ForwardDigitsAt(const NegacyclicFft& plan, FreqPolynomial* dec,
                     const Torus32* coefs, int32_t rot, int32_t l,
                     int32_t bg_bit, uint32_t offset) {
    const int32_t n = plan.Size();
    rot = ((rot % (2 * n)) + 2 * n) % (2 * n);
    DigitInput<O, kRotate> in{coefs,
                              n,
                              rot % n,
                              rot >= n,
                              0,
                              O::SetWords(offset),
                              O::SetWords((UINT32_C(1) << bg_bit) - 1),
                              O::SetWords(UINT32_C(1) << (bg_bit - 1))};
    for (int32_t j = 0; j < l; ++j) {
        in.shift = 32 - bg_bit * (j + 1);
        ForwardFrom<O>(plan, dec[j].Re(), dec[j].Im(), in);
    }
}

template <class O>
void ForwardDigits(const NegacyclicFft& plan, FreqPolynomial* dec,
                   const Torus32* coefs, int32_t l, int32_t bg_bit,
                   uint32_t offset) {
    ForwardDigitsAt<O, false>(plan, dec, coefs, 0, l, bg_bit, offset);
}

template <class O>
void ForwardRotatedDigits(const NegacyclicFft& plan, FreqPolynomial* dec,
                          const Torus32* coefs, int32_t rot, int32_t l,
                          int32_t bg_bit, uint32_t offset) {
    ForwardDigitsAt<O, true>(plan, dec, coefs, rot, l, bg_bit, offset);
}

/** Rows whose operand pointers MulAccColumns holds at once. */
constexpr int32_t kMulAccRows = 16;

/** Operand pointers of MulAccColumns, one row block. */
template <int kCols>
struct MulAccRows {
    const double* ar[kMulAccRows];
    const double* ai[kMulAccRows];
    const double* br[kMulAccRows][kCols];
    const double* bi[kMulAccRows][kCols];
    double* sr[kCols];
    double* si[kCols];
    int32_t rows;
    bool first;  ///< Sums start from zero, else from the stored ones.
};

/** kVecs consecutive vectors from slot i of MulAccColumns. */
template <class O, int kCols, int kVecs>
inline void MulAccVectors(const MulAccRows<kCols>& p, int32_t i) {
    using V = typename O::V;
    V sr[kVecs][kCols], si[kVecs][kCols];
    for (int v = 0; v < kVecs; ++v)
        for (int c = 0; c < kCols; ++c) {
            const int32_t at = i + v * O::kWidth;
            sr[v][c] = p.first ? O::Set1(0.0) : O::Load(p.sr[c] + at);
            si[v][c] = p.first ? O::Set1(0.0) : O::Load(p.si[c] + at);
        }
    for (int32_t r = 0; r < p.rows; ++r) {
        for (int v = 0; v < kVecs; ++v) {
            const int32_t at = i + v * O::kWidth;
            const V xr = O::Load(p.ar[r] + at), xi = O::Load(p.ai[r] + at);
            for (int c = 0; c < kCols; ++c) {
                const V yr = O::Load(p.br[r][c] + at);
                const V yi = O::Load(p.bi[r][c] + at);
                sr[v][c] = O::Add(sr[v][c],
                                  O::Sub(O::Mul(xr, yr), O::Mul(xi, yi)));
                si[v][c] = O::Add(si[v][c],
                                  O::Add(O::Mul(xr, yi), O::Mul(xi, yr)));
            }
        }
    }
    for (int v = 0; v < kVecs; ++v)
        for (int c = 0; c < kCols; ++c) {
            const int32_t at = i + v * O::kWidth;
            O::Store(p.sr[c] + at, sr[v][c]);
            O::Store(p.si[c] + at, si[v][c]);
        }
}

/**
 * Columns [col, col + kCols) of MulAcc for rows [r0, r1), r1 - r0 <=
 * kMulAccRows: the sums start from zero when r0 == 0 and from acc
 * otherwise (a stored double reloads exactly). Two vectors per step
 * share each operand pointer load.
 */
template <class O, int kCols>
void MulAccColumns(FreqPolynomial* acc, const FreqPolynomial* dec,
                   const std::vector<FreqPolynomial>* key, int32_t r0,
                   int32_t r1, int32_t col, int32_t begin, int32_t end) {
    MulAccRows<kCols> p;
    p.rows = r1 - r0;
    p.first = r0 == 0;
    for (int32_t r = 0; r < p.rows; ++r) {
        p.ar[r] = dec[r0 + r].Re();
        p.ai[r] = dec[r0 + r].Im();
        for (int c = 0; c < kCols; ++c) {
            p.br[r][c] = key[r0 + r][col + c].Re();
            p.bi[r][c] = key[r0 + r][col + c].Im();
        }
    }
    for (int c = 0; c < kCols; ++c) {
        p.sr[c] = acc[col + c].Re();
        p.si[c] = acc[col + c].Im();
    }
    int32_t i = begin;
    for (; i + 2 * O::kWidth <= end; i += 2 * O::kWidth)
        MulAccVectors<O, kCols, 2>(p, i);
    if (i < end) MulAccVectors<O, kCols, 1>(p, i);
}

template <class O>
void MulAcc(FreqPolynomial* acc, const FreqPolynomial* dec,
            const std::vector<FreqPolynomial>* key, int32_t rows,
            int32_t cols, int32_t begin, int32_t end) {
    for (int32_t r0 = 0; r0 < rows; r0 += kMulAccRows) {
        const int32_t r1 = std::min(rows, r0 + kMulAccRows);
        int32_t c = 0;
        for (; c + 2 <= cols; c += 2)
            MulAccColumns<O, 2>(acc, dec, key, r0, r1, c, begin, end);
        if (c < cols)
            MulAccColumns<O, 1>(acc, dec, key, r0, r1, c, begin, end);
    }
}

constexpr size_t kSlabAlign = 64;
constexpr size_t kRowAlignWords = kSlabAlign / sizeof(Torus32);

/**
 * acc += row when neg == 0, acc -= row when neg == ~0 ((x ^ ~0) - ~0 = -x),
 * over `chunks` 64-byte chunks; both are 64-byte aligned and the row never
 * aliases the accumulator.
 */
[[gnu::always_inline]] inline void AddSignedRow(
    Torus32* __restrict acc, const Torus32* __restrict row, size_t chunks,
    uint32_t neg) {
    acc = static_cast<Torus32*>(__builtin_assume_aligned(acc, kSlabAlign));
    row = static_cast<const Torus32*>(
        __builtin_assume_aligned(row, kSlabAlign));
    for (size_t k = 0; k < chunks; ++k, acc += kRowAlignWords,
                row += kRowAlignWords)
        for (size_t c = 0; c < kRowAlignWords; ++c)
            acc[c] += (row[c] ^ neg) - neg;
}

void KeySwitchWalk(const KeySwitchSlab& k, const LweSample* in,
                   const LweView* out, int32_t b) {
    assert(b >= 1 && b <= kKsLaneGroup && b * k.stride <= kKsAccWords);
    const int32_t half = (1 << k.base_bit) / 2;
    // Round each a_i to t digits instead of truncating, and add B/2 at
    // every digit position: unsigned digit u of the sum is the signed
    // digit u - B/2 of the rounded a_i, and a carry out of the top digit
    // vanishes mod 1.
    uint32_t offset = UINT32_C(1) << (32 - (1 + k.base_bit * k.t));
    for (int32_t j = 0; j < k.t; ++j)
        offset += static_cast<uint32_t>(half) << (32 - k.base_bit * (j + 1));
    const uint32_t mask = (UINT32_C(1) << k.base_bit) - 1;

    // Each lane accumulates a whole padded row (mask, body, zero padding)
    // in an aligned buffer that stays in L1 for the whole walk, so the row
    // update is a whole number of 64-byte chunks with no remainder loop.
    alignas(kSlabAlign) Torus32 acc[kKsAccWords];
    uint32_t ai[kKsLaneGroup];
    const size_t stride = k.stride;
    std::memset(acc, 0, b * stride * sizeof(Torus32));
    for (int32_t l = 0; l < b; ++l) {
        assert(in[l].N() == k.n_in);
        assert(out[l].n == k.n_out);
        acc[l * stride + k.n_out] = in[l].b;
    }
    const size_t block = static_cast<size_t>(half) * stride;
    const Torus32* rows = k.slab;
    for (int32_t i = 0; i < k.n_in; ++i) {
        for (int32_t l = 0; l < b; ++l) ai[l] = in[l].a[i] + offset;
        for (int32_t j = 0; j < k.t; ++j, rows += block) {
            const int32_t shift = 32 - k.base_bit * (j + 1);
            for (int32_t l = 0; l < b; ++l) {
                const int32_t d =
                    static_cast<int32_t>((ai[l] >> shift) & mask) - half;
                if (d == 0) continue;
                // A positive digit subtracts row d, a negative one adds
                // row -d; both without a branch on the sign.
                const int32_t sign = d >> 31;  // 0 or -1.
                const int32_t v = (d ^ sign) - sign;
                const Torus32* row =
                    rows + static_cast<size_t>(v - 1) * stride;
                AddSignedRow(acc + l * stride, row, stride / kRowAlignWords,
                             ~static_cast<uint32_t>(sign));
            }
        }
    }
    for (int32_t l = 0; l < b; ++l) {
        std::copy(acc + l * stride, acc + l * stride + k.n_out, out[l].a);
        *out[l].b = acc[l * stride + k.n_out];
    }
}

/** The kernel of tier O, usable from h >= min_half. */
template <class O>
constexpr FftKernel KernelOf(int32_t min_half) {
    return FftKernel{&Forward<O>,
                     &Inverse<O, false>,
                     &Inverse<O, true>,
                     &AddMul<O>,
                     &ForwardDigits<O>,
                     &ForwardRotatedDigits<O>,
                     &MulAcc<O>,
                     &KeySwitchWalk,
                     min_half};
}

}  // namespace
}  // namespace pytfhe::tfhe::batch_detail

#endif  // PYTFHE_TFHE_FFT_KERNEL_H
