// CLEAN: ISA-specific work reached only through the KernelTable.
#include "support/simd.hpp"

namespace demo::ml {

float head(const float* x) { return demo::support::kernels().first_lane(x); }

}  // namespace demo::ml
