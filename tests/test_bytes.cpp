// Canonical serialization: round-trips, truncation errors, the float-vector
// byte image, and that a corrupt length prefix cannot make the decoder
// allocate beyond its input (a replacement operator new records the
// largest request).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <limits>
#include <new>

#include "chain/bytes.hpp"

namespace {

std::atomic<std::size_t> g_largest_request{0};

/// Refused outright, so a decoder that sizes a buffer from an unchecked
/// length prefix fails this test instead of committing gigabytes.
constexpr std::size_t kRefuseAbove = std::size_t{1} << 30;

}  // namespace

void* operator new(std::size_t size) {
    std::size_t seen = g_largest_request.load(std::memory_order_relaxed);
    while (size > seen && !g_largest_request.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed)) {
    }
    if (size <= kRefuseAbove)
        if (void* ptr = std::malloc(size ? size : 1)) return ptr;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace {

using fairbfl::chain::ByteReader;
using fairbfl::chain::Bytes;
using fairbfl::chain::ByteWriter;

TEST(Bytes, IntegerRoundTrip) {
    ByteWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFULL);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFU);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
    EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, FloatRoundTrip) {
    ByteWriter w;
    w.f32(3.14159F);
    w.f64(-2.718281828459045);
    ByteReader r(w.bytes());
    EXPECT_FLOAT_EQ(r.f32(), 3.14159F);
    EXPECT_DOUBLE_EQ(r.f64(), -2.718281828459045);
}

TEST(Bytes, FloatSpecialValues) {
    ByteWriter w;
    w.f32(0.0F);
    w.f32(-0.0F);
    w.f32(std::numeric_limits<float>::infinity());
    ByteReader r(w.bytes());
    EXPECT_EQ(r.f32(), 0.0F);
    EXPECT_EQ(r.f32(), -0.0F);
    EXPECT_EQ(r.f32(), std::numeric_limits<float>::infinity());
}

TEST(Bytes, BlobAndStringRoundTrip) {
    ByteWriter w;
    w.blob(Bytes{1, 2, 3});
    w.str("hello, chain");
    w.blob(Bytes{});
    ByteReader r(w.bytes());
    EXPECT_EQ(r.blob(), (Bytes{1, 2, 3}));
    EXPECT_EQ(r.str(), "hello, chain");
    EXPECT_TRUE(r.blob().empty());
    EXPECT_TRUE(r.exhausted());
}

/// -0, the smallest and a mid-range denormal, +-inf, a quiet NaN with a
/// payload, a signed signalling NaN, and an ordinary value.
std::vector<float> special_floats() {
    return {-0.0F,
            std::numeric_limits<float>::denorm_min(),
            std::bit_cast<float>(0x00345678U),
            std::numeric_limits<float>::infinity(),
            -std::numeric_limits<float>::infinity(),
            std::bit_cast<float>(0x7FC12345U),
            std::bit_cast<float>(0xFF800001U),
            1.5F};
}

TEST(Bytes, F32VectorEncodingIsPinned) {
    // Captured from the per-float encoder that predates the one-copy path.
    const Bytes expected{
        0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00, 0x00,
        0x78, 0x56, 0x34, 0x00, 0x00, 0x00, 0x80, 0x7F, 0x00, 0x00, 0x80, 0xFF,
        0x45, 0x23, 0xC1, 0x7F, 0x01, 0x00, 0x80, 0xFF, 0x00, 0x00, 0xC0, 0x3F};
    ByteWriter w;
    w.f32_vector(special_floats());
    EXPECT_EQ(w.bytes(), expected);
}

TEST(Bytes, F32VectorRoundTrip) {
    std::vector<float> v{1.0F, -0.5F, 1e-7F, 42.0F};
    for (const float f : special_floats()) v.push_back(f);
    ByteWriter w;
    w.f32_vector(v);
    w.u8(0x5A);  // trailing field: the reader must stop at the vector's end
    ByteReader r(w.bytes());
    const std::vector<float> back = r.f32_vector();
    ASSERT_EQ(back.size(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(back[i]),
                  std::bit_cast<std::uint32_t>(v[i]))
            << "element " << i;
    EXPECT_EQ(r.u8(), 0x5A);
    EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, F32VectorPrefixBeyondInputThrowsWithoutAllocating) {
    {
        const Bytes input{0xFF, 0xFF, 0xFF, 0xFF};
        ByteReader r(input);
        EXPECT_THROW((void)r.f32_vector(), std::out_of_range);
    }
    // The same 2^32 - 1 claim over 64 floats of real data: decoding may
    // allocate for the exception's message, never for the claimed count.
    Bytes input(4 + 64 * sizeof(float), 0x00);
    input[0] = input[1] = input[2] = input[3] = 0xFF;
    ByteReader r(input);
    g_largest_request.store(0, std::memory_order_relaxed);
    EXPECT_THROW((void)r.f32_vector(), std::out_of_range);
    EXPECT_LE(g_largest_request.load(std::memory_order_relaxed),
              input.size());
}

TEST(Bytes, TruncatedInputThrows) {
    ByteWriter w;
    w.u32(7);
    {
        ByteReader r(w.bytes());
        EXPECT_THROW((void)r.u64(), std::out_of_range);
    }
    {
        // Length prefix claims more bytes than exist.
        ByteWriter w2;
        w2.u32(100);
        ByteReader r(w2.bytes());
        EXPECT_THROW((void)r.blob(), std::out_of_range);
    }
}

TEST(Bytes, RawReadsExactCount) {
    ByteWriter w;
    w.raw(Bytes{9, 8, 7, 6});
    ByteReader r(w.bytes());
    EXPECT_EQ(r.raw(2), (Bytes{9, 8}));
    EXPECT_EQ(r.remaining(), 2U);
    EXPECT_THROW((void)r.raw(3), std::out_of_range);
}

}  // namespace
