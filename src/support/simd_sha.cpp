// The SHA-NI SHA-256 block compressor -- the only TU in the tree compiled
// with -msha -msse4.1 (CMake sets the flags on exactly this file).
//
// SHA-256 is a function, so this body is exact by definition: every
// digest it produces equals the portable round loop's in
// crypto/sha256.cpp, and test_sha256 compares the two byte for byte.
// crypto::detail::sha256_blocks() picks it once per process when
// cpu_supports_sha() holds and the accessor below is non-null.
//
// The schedule follows Intel's SHA extensions layout: the working state
// lives in two registers as ABEF and CDGH, each _mm_sha256rnds2_epu32 runs
// two rounds on the low 64 bits of its message+constant operand, and
// _mm_sha256msg1_epu32 / _mm_sha256msg2_epu32 extend the message schedule
// four words at a time.
//
// When the build cannot enable SHA (non-x86 target, flags rejected), the
// guard below compiles this TU down to a null accessor and SHA-256 stays
// on the portable body.

#include "support/simd.hpp"

#if defined(__SHA__) && defined(__SSE4_1__)

#include <immintrin.h>

namespace fairbfl::support::simd {

namespace {

alignas(16) constexpr std::uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

void sha256_blocks(std::uint32_t* state, const std::uint8_t* data,
                   std::size_t blocks) {
    // Byte order within each 32-bit word: the message is big-endian.
    const __m128i kByteSwap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

    // a..h -> ABEF and CDGH (register names list lanes high to low).
    const __m128i cdab = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for (; blocks > 0; --blocks, data += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        // w[g % 4] holds schedule words 4g..4g+3 while group g runs.
        __m128i w[4];
        for (int i = 0; i < 4; ++i)
            w[i] = _mm_shuffle_epi8(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(data + 16 * i)),
                kByteSwap);
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            const __m128i cur = w[g & 3];
            const __m128i wk = _mm_add_epi32(
                cur, _mm_load_si128(reinterpret_cast<const __m128i*>(
                         kRoundConstants + 4 * g)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh,
                                         _mm_shuffle_epi32(wk, 0x0E));
            // Finish words 4g+4..4g+7: add their w[t-7] (words 4g-3..4g),
            // then msg2 adds the sigma1 terms, starting from this group.
            if (g >= 3 && g < 15) {
                __m128i& next = w[(g + 1) & 3];
                next = _mm_add_epi32(next,
                                     _mm_alignr_epi8(cur, w[(g - 1) & 3], 4));
                next = _mm_sha256msg2_epu32(next, cur);
            }
            // Start words 4g+12..4g+15: sigma0 terms of group g-1's slot.
            if (g >= 1 && g < 13)
                w[(g - 1) & 3] = _mm_sha256msg1_epu32(w[(g - 1) & 3], cur);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // ABEF and CDGH -> a..h.
    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                     _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace

namespace detail {
Sha256Blocks sha_ni_sha256_blocks() noexcept { return sha256_blocks; }
}  // namespace detail

}  // namespace fairbfl::support::simd

#else  // !(__SHA__ && __SSE4_1__)

namespace fairbfl::support::simd::detail {
Sha256Blocks sha_ni_sha256_blocks() noexcept { return nullptr; }
}  // namespace fairbfl::support::simd::detail

#endif
