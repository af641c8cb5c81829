// CLEAN: the one backend TU spells intrinsics (exempted by this tree's
// allowlist -- and the exemption is live, since simd-isolation flags
// this file with it off).
#include <immintrin.h>

#include "support/simd.hpp"

namespace demo::support {

float first_lane_avx2(const float* x) {
    const __m256 v = _mm256_loadu_ps(x);
    return _mm256_cvtss_f32(v);
}

}  // namespace demo::support
