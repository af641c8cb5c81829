#pragma once
// CLEAN: the pinned kernels -- callers see plain functions, never an ISA.

namespace demo::support {

float first_lane(const float* x);

float first_lane_avx2(const float* x);

}  // namespace demo::support
