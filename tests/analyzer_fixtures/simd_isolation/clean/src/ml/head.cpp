// CLEAN: ISA-specific work reached only through a support/simd kernel.
#include "support/simd.hpp"

namespace demo::ml {

float head(const float* x) { return demo::support::first_lane(x); }

}  // namespace demo::ml
