/**
 * @file
 * LWE-to-LWE key switching.
 *
 * After sample extraction, ciphertexts live under the extracted key of
 * dimension N*k. The key-switching key re-encrypts them under the small LWE
 * key of dimension n so that the next gate's linear phase stays cheap.
 *
 * Each mask coefficient a_i, rounded to t digits of base B = 2^base_bit, is
 * decomposed into signed digits d_j in [-B/2, B/2) with
 * a_i ~ sum_j d_j / B^{j+1}. The key holds encryptions of
 * s_i * v / B^{j+1} for v = 1..B/2 only: a positive digit subtracts row
 * (i, j, d), a negative digit adds row (i, j, -d), and a zero digit touches
 * nothing. Against unsigned digits in [0, B) this stores half the rows
 * (no v = 0 rows, no v > B/2 rows) with the same t rows per coefficient at
 * most, so the same noise bound (tfhe/noise.h).
 *
 * The key is one 64-byte-aligned slab of rows. Row (i, j, v) holds the
 * n_out mask words followed by the body word, padded to a multiple of 16
 * words; the B/2 rows of one digit position (i, j) are adjacent, and
 * positions follow in (i, j) order. ApplyBatchInto walks that slab once per
 * batch: every lane's digit for (i, j) reads from the same block of B/2
 * rows, so a batch of b lanes streams the key once instead of b times.
 * Each lane accumulates whole padded rows in an aligned on-stack buffer.
 * The arithmetic is integer mod 2^32 and commutes, so a lane's output is
 * word-for-word what a one-lane call produces.
 */
#ifndef PYTFHE_TFHE_KEYSWITCH_H
#define PYTFHE_TFHE_KEYSWITCH_H

#include <memory>

#include "tfhe/lwe.h"

namespace pytfhe::tfhe {

/** Key-switching key from an input key of dimension n_in to an output key. */
class KeySwitchKey {
  public:
    KeySwitchKey() = default;

    /**
     * Builds the key material.
     * @param in_key   Key the incoming samples are encrypted under.
     * @param out_key  Key the result should be encrypted under.
     * @param t        Decomposition depth.
     * @param base_bit log2 of the decomposition base (at least 1).
     * @param noise_stddev Fresh noise of each key-switching encryption.
     */
    KeySwitchKey(const LweKey& in_key, const LweKey& out_key, int32_t t,
                 int32_t base_bit, double noise_stddev, Rng& rng);

    /** Largest output dimension: one padded row fits the accumulator. */
    static constexpr int32_t kMaxOutputN = 8 * 1024 - 1;

    /**
     * An all-zero key of the given shape, filled row by row through
     * MutableRow (the deserializer's entry point, tfhe/serialization.h).
     * Throws std::invalid_argument when n_out exceeds kMaxOutputN.
     */
    KeySwitchKey(int32_t n_in, int32_t n_out, int32_t t, int32_t base_bit);

    /**
     * Row (i, j, v) for 1 <= v <= RowsPerDigit(): the encryption of
     * s_i * v / B^{j+1}, mask words [0, OutputN()) then the body word.
     */
    const Torus32* Row(int32_t i, int32_t j, int32_t v) const {
        return slab_.get() + RowIndex(i, j, v) * stride_;
    }
    Torus32* MutableRow(int32_t i, int32_t j, int32_t v) {
        return slab_.get() + RowIndex(i, j, v) * stride_;
    }

    /** Re-encrypts `in` (under in_key) as a sample under out_key. */
    LweSample Apply(const LweSample& in) const;

    /**
     * Allocation-free variant writing into caller-owned storage of
     * dimension OutputN(): the one-lane ApplyBatchInto. The result does
     * not depend on out's prior contents.
     */
    void ApplyInto(const LweSample& in, LweView out) const;

    /**
     * Key-switches lanes in[0..b) into out[0..b) in one pass over the key.
     * Every out view has dimension OutputN() and its own storage; none may
     * alias an input (the dimensions differ in every caller). Lane l's
     * output is word-for-word ApplyInto(in[l], out[l]).
     */
    void ApplyBatchInto(const LweSample* in, const LweView* out,
                        int32_t b) const;

    int32_t InputN() const { return n_in_; }
    int32_t OutputN() const { return n_out_; }
    int32_t T() const { return t_; }
    int32_t BaseBit() const { return base_bit_; }
    /** Stored rows per digit position: |v| = 1..B/2. */
    int32_t RowsPerDigit() const { return base_ / 2; }
    /** Total stored rows: InputN() * T() * RowsPerDigit(). */
    size_t NumRows() const {
        return static_cast<size_t>(n_in_) * t_ * RowsPerDigit();
    }

    /** Bytes of the key slab, row padding included. */
    size_t ByteSize() const { return NumRows() * stride_ * sizeof(Torus32); }

  private:
    struct SlabFree {
        void operator()(Torus32* p) const;
    };

    size_t RowIndex(int32_t i, int32_t j, int32_t v) const {
        return (static_cast<size_t>(i) * t_ + j) * RowsPerDigit() + (v - 1);
    }

    int32_t n_in_ = 0;
    int32_t n_out_ = 0;
    int32_t t_ = 0;
    int32_t base_bit_ = 0;
    int32_t base_ = 0;
    size_t stride_ = 0;  ///< Words per row: n_out + 1 rounded up to 16.
    std::unique_ptr<Torus32[], SlabFree> slab_;
};

}  // namespace pytfhe::tfhe

#endif  // PYTFHE_TFHE_KEYSWITCH_H
