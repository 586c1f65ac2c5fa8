/**
 * @file
 * Internal: the one body of the negacyclic FFT kernel, included by the
 * three tier TUs (see fft_batch_kernels.h). Everything here has internal
 * linkage, so each TU keeps the copy compiled with its own ISA flags.
 *
 * A tier is a class `O` with a vector type `V` of `kWidth` doubles and
 * static Load/Store/Set1/Add/Sub/Mul, StoreRounded (the low 32 bits of
 * each lane's bit pattern), and, for kWidth > 1, the in-register stages
 * TailForward (DIF half-sizes kWidth/2 .. 1) and HeadInverse (DIT 1 ..
 * kWidth/2) on one block of kWidth slots, built from the plan's twiddles.
 *
 * Forward: twist, then DIF stages from half-size h/2 down to 1, two per
 * pass (radix-2^2) with the twist fused into the first pass and the
 * in-register stages into the last. Slots come out bit-reversed.
 * Inverse: DIT stages from half-size 1 up to h/2 on bit-reversed slots,
 * two per pass, with the untwist and the rounding fused into the last.
 * Fusing stages changes no element's expressions, so the per-element
 * rounding equals plain radix-2 and tiers may group stages differently.
 * The half-size-1 stage multiplies by no twiddle.
 */
#ifndef PYTFHE_TFHE_FFT_KERNEL_H
#define PYTFHE_TFHE_FFT_KERNEL_H

#include <bit>
#include <cstdint>

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

/**
 * One pass of kStages DIF stages over the whole transform: half-sizes 2q
 * and q for two stages, q for one, none for zero (then q = kWidth and the
 * pass only twists and/or runs the in-register stages). kFirst twists on
 * load; kLast runs the in-register stages before the store.
 */
template <class O, int kStages, bool kFirst, bool kLast>
void ForwardPass(const O& ops, const NegacyclicFft& plan, double* re,
                 double* im, int32_t q) {
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
                r[v] = O::Load(re + j);
                m[v] = O::Load(im + j);
                if constexpr (kFirst) {
                    // (lo - i*hi) * twist: the X^h -> -i fold.
                    const V c = O::Load(tr + j);
                    const V s = O::Load(ti + j);
                    const V lo = r[v];
                    r[v] = O::Add(O::Mul(lo, c), O::Mul(m[v], s));
                    m[v] = O::Sub(O::Mul(lo, s), O::Mul(m[v], c));
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
 * storing.
 */
template <class O, int kStages, bool kFirst, bool kLast>
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
                    O::StoreRounded(out + j, O::Add(ar, magic));
                    O::StoreRounded(out + j + h, O::Sub(magic, ai));
                } else {
                    O::Store(re + j, r[v]);
                    O::Store(im + j, m[v]);
                }
            }
        }
    }
}

/** ForwardPass with kFirst/kLast chosen from runtime flags. */
template <class O, int kStages>
void ForwardPassAt(bool first, bool last, const O& ops,
                   const NegacyclicFft& plan, double* re, double* im,
                   int32_t q) {
    if (first && last)
        ForwardPass<O, kStages, true, true>(ops, plan, re, im, q);
    else if (first)
        ForwardPass<O, kStages, true, false>(ops, plan, re, im, q);
    else if (last)
        ForwardPass<O, kStages, false, true>(ops, plan, re, im, q);
    else
        ForwardPass<O, kStages, false, false>(ops, plan, re, im, q);
}

/** InversePass with kFirst/kLast chosen from runtime flags. */
template <class O, int kStages>
void InversePassAt(bool first, bool last, const O& ops,
                   const NegacyclicFft& plan, double* re, double* im,
                   Torus32* out, int32_t q) {
    if (first && last)
        InversePass<O, kStages, true, true>(ops, plan, re, im, out, q);
    else if (first)
        InversePass<O, kStages, true, false>(ops, plan, re, im, out, q);
    else if (last)
        InversePass<O, kStages, false, true>(ops, plan, re, im, out, q);
    else
        InversePass<O, kStages, false, false>(ops, plan, re, im, out, q);
}

/** log2(h) - log2(kWidth): the stages outside the in-register block. */
template <class O>
int32_t PassStages(int32_t h) {
    return std::countr_zero(static_cast<uint32_t>(h)) -
           std::countr_zero(static_cast<uint32_t>(O::kWidth));
}

template <class O>
void Forward(const NegacyclicFft& plan, double* re, double* im) {
    const O ops(plan);
    const int32_t stages = PassStages<O>(plan.Half());
    if (stages == 0) {
        ForwardPassAt<O, 0>(true, true, ops, plan, re, im, O::kWidth);
        return;
    }
    int32_t done = 0;
    int32_t hb = plan.Half() / 2;  // Largest half-size not yet done.
    if (stages % 2 == 1) {
        ForwardPassAt<O, 1>(true, stages == 1, ops, plan, re, im, hb);
        hb /= 2;
        done = 1;
    }
    for (; done < stages; done += 2, hb /= 4)
        ForwardPassAt<O, 2>(done == 0, done + 2 == stages, ops, plan, re,
                            im, hb / 2);
}

template <class O>
void Inverse(const NegacyclicFft& plan, double* re, double* im,
             Torus32* out) {
    const O ops(plan);
    const int32_t stages = PassStages<O>(plan.Half());
    if (stages == 0) {
        InversePassAt<O, 0>(true, true, ops, plan, re, im, out, O::kWidth);
        return;
    }
    int32_t done = 0;
    int32_t q = O::kWidth;  // Smallest half-size not yet done.
    for (; done + 2 <= stages; done += 2, q *= 4)
        InversePassAt<O, 2>(done == 0, done + 2 == stages, ops, plan, re,
                            im, out, q);
    if (done < stages)
        InversePassAt<O, 1>(done == 0, true, ops, plan, re, im, out, q);
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

/** The kernel of tier O, usable from h >= min_half. */
template <class O>
constexpr FftKernel KernelOf(int32_t min_half) {
    return FftKernel{&Forward<O>, &Inverse<O>, &AddMul<O>, min_half};
}

}  // namespace
}  // namespace pytfhe::tfhe::batch_detail

#endif  // PYTFHE_TFHE_FFT_KERNEL_H
