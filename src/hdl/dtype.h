/**
 * @file
 * Parameterizable data types (Section IV-B of the paper).
 *
 * TFHE programs operate at gate level, so data types are not limited to
 * byte or word alignment: ChiselTorch supports integers and fixed-point
 * values of arbitrary bit width, and floating-point types with arbitrary
 * exponent and mantissa widths — e.g. Float(8, 8) is bfloat16 and
 * Float(5, 11) is effectively half precision. Choosing a cheaper data type
 * can reduce gate counts by orders of magnitude; the dtype ablation bench
 * quantifies this.
 *
 * This header also defines the plaintext encoding used by clients to turn
 * numbers into bit vectors before encryption (and back after decryption),
 * and by tests as the reference semantics for the generated circuits.
 */
#ifndef PYTFHE_HDL_DTYPE_H
#define PYTFHE_HDL_DTYPE_H

#include <cstdint>
#include <string>
#include <vector>

namespace pytfhe::hdl {

/** A parameterizable scalar data type. */
class DType {
  public:
    // Int-wide so DType has no padding bytes: gtest lists a parameter of
    // this type byte by byte, and indeterminate padding would make the
    // listed test names differ from build to build.
    enum class Kind : int32_t { kUInt, kSInt, kFixed, kFloat };

    /** Unsigned integer of `width` bits. */
    static DType UInt(int32_t width) { return DType(Kind::kUInt, width, 0); }
    /** Signed (two's complement) integer of `width` bits. */
    static DType SInt(int32_t width) { return DType(Kind::kSInt, width, 0); }
    /**
     * Signed fixed point with int_bits integer bits (including sign) and
     * frac_bits fractional bits.
     */
    static DType Fixed(int32_t int_bits, int32_t frac_bits) {
        return DType(Kind::kFixed, int_bits, frac_bits);
    }
    /** Floating point with exp_bits exponent and mant_bits mantissa bits. */
    static DType Float(int32_t exp_bits, int32_t mant_bits) {
        return DType(Kind::kFloat, exp_bits, mant_bits);
    }

    Kind kind() const { return kind_; }
    bool IsFloat() const { return kind_ == Kind::kFloat; }
    bool IsSigned() const { return kind_ != Kind::kUInt; }

    /** Total storage bits (float: 1 sign + exp + mant). */
    int32_t TotalBits() const;

    /** Integer bits for kFixed; width for integer kinds. */
    int32_t IntBits() const { return a_; }
    int32_t FracBits() const { return kind_ == Kind::kFixed ? b_ : 0; }
    int32_t ExpBits() const { return a_; }
    int32_t MantBits() const { return b_; }
    /** Floating-point exponent bias 2^(e-1) - 1. */
    int32_t Bias() const { return (1 << (a_ - 1)) - 1; }

    /**
     * Encodes a real number into this type's bit pattern (LSB first).
     * Values are clamped/rounded per type semantics: integers round to
     * nearest and saturate; fixed point rounds to nearest; floats truncate
     * the mantissa, flush subnormals to zero, and saturate to infinity.
     */
    std::vector<bool> Encode(double value) const;

    /** Decodes a bit pattern back into a real number. */
    double Decode(const std::vector<bool>& bits) const;

    /** Quantization: the closest value representable in this type. */
    double Quantize(double value) const { return Decode(Encode(value)); }

    std::string ToString() const;

    bool operator==(const DType&) const = default;

  private:
    DType(Kind kind, int32_t a, int32_t b) : kind_(kind), a_(a), b_(b) {}

    Kind kind_;
    int32_t a_;  ///< Width / int bits / exponent bits.
    int32_t b_;  ///< Fraction bits / mantissa bits.
};

static_assert(sizeof(DType) == 3 * sizeof(int32_t), "DType has padding");

}  // namespace pytfhe::hdl

#endif  // PYTFHE_HDL_DTYPE_H
