#pragma once
// CLEAN: the runtime-dispatched kernel table -- callers see function
// pointers, never an ISA.

namespace demo::support {

struct KernelTable {
    float (*first_lane)(const float* x);
};

const KernelTable& kernels();

float first_lane_avx2(const float* x);

}  // namespace demo::support
