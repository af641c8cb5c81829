// Must be flagged by [simd-isolation].  x86 intrinsic
// headers and _mm*/__m* spellings outside src/support/simd* bypass the
// pinned kernels and their lane-exact encodings -- the code stops
// compiling on non-x86 hosts and silently diverges from the pinned series.
#include <immintrin.h>

double open_coded_dot(const float* x, const float* y) {
    __m256 a = _mm256_loadu_ps(x);
    __m256 b = _mm256_loadu_ps(y);
    __m256 p = _mm256_mul_ps(a, b);
    alignas(32) float lanes[8];
    _mm256_storeu_ps(lanes, p);
    double acc = 0.0;
    for (const float v : lanes) acc += v;
    return acc;
}
