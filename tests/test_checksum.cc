/**
 * @file
 * Unit tests for the CRC-8 used by the FCR integrity model.
 */

#include <gtest/gtest.h>

#include "src/router/flit.hh"
#include "src/sim/checksum.hh"

namespace crnet {
namespace {

TEST(Crc8, KnownVectors)
{
    // CRC-8/SMBUS of 0 is 0 (all-zero input, zero init).
    EXPECT_EQ(crc8(0x0000000000000000ULL), 0x00);
    // Deterministic and stable values (regression anchors).
    const std::uint8_t a = crc8(0x0123456789abcdefULL);
    const std::uint8_t b = crc8(0x0123456789abcdefULL);
    EXPECT_EQ(a, b);
}

TEST(Crc8, SmbusCheckVector)
{
    // The canonical CRC-8/SMBUS check: crc8("123456789") == 0xF4.
    const std::uint8_t msg[] = {'1', '2', '3', '4', '5',
                                '6', '7', '8', '9'};
    EXPECT_EQ(crc8(msg, sizeof(msg)), 0xF4);
}

TEST(Crc8, EdgeCaseInputs)
{
    // Empty stream: CRC stays at its zero init value.
    EXPECT_EQ(crc8(nullptr, 0), 0x00);
    // Single bytes against a bitwise reference implementation.
    for (int v : {0x00, 0x01, 0x7f, 0x80, 0xff}) {
        std::uint8_t crc = static_cast<std::uint8_t>(v);
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 0x80)
                      ? static_cast<std::uint8_t>((crc << 1) ^ 0x07)
                      : static_cast<std::uint8_t>(crc << 1);
        }
        const std::uint8_t byte = static_cast<std::uint8_t>(v);
        EXPECT_EQ(crc8(&byte, 1), crc) << "byte " << v;
    }
    // All-ones word: value fixed by the polynomial, not the platform.
    const std::uint8_t ones[8] = {0xff, 0xff, 0xff, 0xff,
                                  0xff, 0xff, 0xff, 0xff};
    EXPECT_EQ(crc8(0xffffffffffffffffULL), crc8(ones, 8));
}

TEST(Crc8, WordMatchesByteStream)
{
    // The word overload is defined as the stream CRC of its bytes,
    // low byte first.
    const std::uint64_t word = 0x0123456789abcdefULL;
    const std::uint8_t bytes[] = {0xef, 0xcd, 0xab, 0x89,
                                  0x67, 0x45, 0x23, 0x01};
    EXPECT_EQ(crc8(word), crc8(bytes, sizeof(bytes)));
}

TEST(Crc8, SingleBitFlipsAreDetected)
{
    const std::uint64_t word = 0xdeadbeefcafe1234ULL;
    const std::uint8_t base = crc8(word);
    for (int bit = 0; bit < 64; ++bit) {
        const std::uint64_t flipped = word ^ (1ULL << bit);
        EXPECT_NE(crc8(flipped), base) << "undetected bit " << bit;
    }
}

TEST(Crc8, ConstexprUsable)
{
    constexpr std::uint8_t c = crc8(0x42ULL);
    static_assert(c == crc8(0x42ULL));
    EXPECT_EQ(c, crc8(0x42ULL));
}

TEST(FlitChecksum, StampAndVerifyRoundTrip)
{
    Flit f;
    f.payload = 0x55667788u;
    f.stampCrc();
    EXPECT_TRUE(f.checksumOk());
    f.payload ^= 0x80000u;
    EXPECT_FALSE(f.checksumOk());
}

TEST(FlitChecksum, DefaultFlitPassesTrivially)
{
    Flit f;  // payload 0, crc 0.
    EXPECT_TRUE(f.checksumOk());
}

} // namespace
} // namespace crnet
