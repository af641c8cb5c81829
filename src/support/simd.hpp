#pragma once
// Runtime-dispatched kernel table behind the vecmath/gemv/projection entry
// points.
//
// The scalar kernels in vecmath.cpp are bit-pinned: fixed-seed series,
// the batched==reference training equivalence, and the reward hex pins
// all depend on their exact accumulation order.  A SIMD+FMA variant
// necessarily rounds differently (fused multiply-adds skip the
// intermediate rounding; wide accumulators reassociate the chain), so the
// fast path cannot hide behind the bit-pin convention.  Instead the two
// live side by side in a function-pointer table:
//
//   * "scalar" -- the pinned reference kernels, byte-for-byte the loops
//     that produced every committed fixed-seed series.  The default: a
//     process that never opts in behaves exactly like the pre-dispatch
//     build on every ISA.
//   * "avx2"   -- AVX2+FMA variants (src/support/simd_avx2.cpp, compiled
//     with -mavx2 -mfma in its own TU).  Reduction kernels keep double
//     accumulation (floats widened before the FMA) but run four doubles
//     per chain; elementwise float kernels run eight lanes.  Covered by
//     the tolerance-based parity harness (tests/test_kernel_parity.cpp),
//     never by bit pins.
//
// Three entries cross the line the other way: the scalar table's four-pair
// squared_distance_blocked_x4, batched forward gemv_rows and batched
// backward outer_accumulate_rows each run a *lane-exact* AVX encoding
// (same IEEE operations per lane as the scalar loop, no FMA) when CPUID
// reports AVX2+FMA and simd_avx2.cpp was built with its ISA.  Each choice
// is made once per process, has no knob, and leaves the table's name
// "scalar", because the bits are the scalar bits; test_kernel_parity pins
// them.
//
// Selection: FAIRBFL_KERNELS=scalar|simd|auto in the environment, or
// set_mode()/set_mode_name() from a CLI flag (--kernels= on fairbfl_sim /
// bench_perf_round).  "simd" and "auto" both probe CPUID at runtime and
// fall back to scalar when AVX2+FMA is absent -- the only difference is
// intent ("simd" is an explicit request benches use; "auto" is the
// deploy-anywhere spelling).  The resolved decision is emitted once as
// the "kernels.dispatch" telemetry counter (0 = scalar, 1 = avx2) so
// perf artifacts can attribute a fast run to the table that served it.
//
// docs/ARCHITECTURE.md ("Kernel dispatch & the tolerance-pin convention")
// carries the how-to for adding another variant.

#include <cstddef>

namespace fairbfl::support::simd {

/// Requested dispatch policy (what the user asked for, not necessarily
/// what the CPU can serve -- see active()).
enum class Mode {
    kScalar = 0,  ///< pinned reference kernels, bit-identical everywhere
    kSimd = 1,    ///< widest supported table (scalar when CPU lacks AVX2+FMA)
    kAuto = 2,    ///< same probe as kSimd; the deploy-anywhere default knob
};

/// Four blocked squared distances sharing x: out[p] for ys[p], p in
/// [0, 4).  The signature of KernelTable::squared_distance_blocked_x4.
using SquaredDistanceX4 = void (*)(const float* x, const float* const* ys,
                                   std::size_t n, double* out);

/// Batched forward over `count` samples sharing one row-major rows x cols
/// matrix: out[s * rows + r] is row r of gemv(a, ..., xs[s], bias).  The
/// signature of KernelTable::gemv_rows.
using GemvRows = void (*)(const float* a, std::size_t rows, std::size_t cols,
                          const float* const* xs, std::size_t count,
                          const float* bias, float* out);

/// Batched backward: `count` outer-product accumulates into one rows x
/// cols matrix y, sample s contributing d[s * rows + r] * xs[s] to row r.
/// The signature of KernelTable::outer_accumulate_rows.
using OuterAccumulateRows = void (*)(const float* d, const float* const* xs,
                                     std::size_t count, std::size_t rows,
                                     std::size_t cols, float* y);

/// One resolved kernel set.  Raw pointers + sizes (not spans) so the
/// `-march`-gated TU needs nothing from the rest of the tree and the
/// indirect call stays a plain function pointer.
struct KernelTable {
    /// Strict left-to-right double-chain dot (training/theta discipline).
    /// The avx2 variant reassociates -- callers opted out of bit pins.
    double (*dot)(const float* x, const float* y, std::size_t n);
    /// Blocked dot: reassociated in every table (comparison-only).
    double (*dot_blocked)(const float* x, const float* y, std::size_t n);
    /// Strict squared Euclidean distance.
    double (*squared_distance)(const float* x, const float* y,
                               std::size_t n);
    /// Blocked squared distance (comparison-only consumers).
    double (*squared_distance_blocked)(const float* x, const float* y,
                                       std::size_t n);
    /// Four blocked squared distances sharing x: out[p] is bitwise equal
    /// to this table's squared_distance_blocked(x, ys[p], n) for p in
    /// [0, 4).  The scalar table serves it with the lane-exact AVX
    /// encoding when the CPU and the build allow (file comment above),
    /// else with four scalar calls -- the same bits either way.
    SquaredDistanceX4 squared_distance_blocked_x4;
    /// y += alpha * x (elementwise; exact in every table).
    void (*axpy)(float alpha, const float* x, float* y, std::size_t n);
    /// Row-major rows x cols matrix-vector product; bias may be null.
    void (*gemv)(const float* a, std::size_t rows, std::size_t cols,
                 const float* x, const float* bias, float* out);
    /// Batched forward: out[s * rows + r] is bitwise this table's
    /// gemv(a, rows, cols, xs[s], bias)[r] for s in [0, count).  The
    /// scalar table serves it with the lane-exact AVX encoding when the
    /// CPU and the build allow (lane k = row r0 + k's strict chain, one
    /// transposed 4x4 tile of `a` reused by every sample), else with
    /// per-sample scalar gemv calls.  The lane-exact body widens the
    /// samples to double block by block into a stack buffer of the
    /// calling thread; nothing is allocated.
    GemvRows gemv_rows;
    /// out[j] += sum_r d[r] * a[r * cols + j], r applied in order.
    void (*gemv_transpose_accumulate)(const float* a, std::size_t rows,
                                      std::size_t cols, const float* d,
                                      float* out);
    /// Batched backward: bitwise this table's axpy(d[s * rows + r], xs[s],
    /// y + r * cols, cols) for every row r, samples s in order.  The
    /// scalar table's lane-exact body loads each 8-float span of a row of
    /// y once, adds every sample's product to it in order of s, and stores
    /// it once.
    OuterAccumulateRows outer_accumulate_rows;
    /// Fused pass for the batched cosine kernel: *dot_out = dot(x, y) and
    /// *x_norm2_out = dot(x, x) in one traversal of x.  The scalar table
    /// carries both strict chains through one loop, so each result is
    /// bitwise this table's dot.
    void (*dot_and_norm)(const float* x, const float* y, std::size_t n,
                         double* dot_out, double* x_norm2_out);
    /// Diagnostic name ("scalar", "avx2") -- perf JSON `kernels` key.
    const char* name;
};

/// True when this CPU can run the AVX2+FMA table (always false off x86).
[[nodiscard]] bool cpu_supports_avx2_fma() noexcept;

/// Selects the table for `mode` (probing the CPU for kSimd/kAuto) and
/// makes it the active one.  Thread-safe; emits the dispatch telemetry
/// counter on every change of the resolved table.
void set_mode(Mode mode) noexcept;

/// set_mode from a CLI/environment spelling ("scalar" | "simd" | "auto").
/// Returns false (and changes nothing) for an unknown name.
bool set_mode_name(const char* name) noexcept;

/// The active kernel table.  First use resolves FAIRBFL_KERNELS from the
/// environment (unset or unrecognized -> scalar, the pinned default);
/// set_mode()/set_mode_name() override it for the rest of the process.
[[nodiscard]] const KernelTable& active() noexcept;

/// Name of the active table ("scalar" / "avx2") for headers and logs.
[[nodiscard]] const char* active_name() noexcept;

/// Notified with the table name whenever dispatch publishes a different
/// kernel table.  Must be noexcept: it can fire from whichever thread
/// first touches the dispatch state.
using DispatchObserver = void (*)(const char* table_name) noexcept;

/// Installs the dispatch observer (nullptr clears it) and, when a table
/// is already published, replays the current name so a late registration
/// still sees it.  Upward-dependency firewall: support must not include
/// telemetry (layer-deps), so the telemetry breadcrumb for kernel
/// dispatch registers itself through this hook instead (telemetry.cpp).
void set_dispatch_observer(DispatchObserver observer) noexcept;

namespace detail {
/// The AVX2+FMA table, or nullptr when this binary was built without the
/// -mavx2 -mfma TU (non-x86 targets, compilers without the flags).  Lives
/// in simd_avx2.cpp so only that TU needs the wide-ISA flags.
[[nodiscard]] const KernelTable* avx2_table() noexcept;
/// The pinned scalar table (always available; the reference the parity
/// harness measures divergence against).
[[nodiscard]] const KernelTable& scalar_table() noexcept;
/// The scalar table's portable four-pair body: four calls of the scalar
/// squared_distance_blocked.  What the table entry runs on hosts without
/// the lane-exact encoding, and the reference that encoding is pinned to.
[[nodiscard]] SquaredDistanceX4 portable_squared_distance_blocked_x4() noexcept;
/// The lane-exact AVX encoding of the scalar four-pair entry (defined in
/// simd_avx2.cpp), or nullptr when the build lacks that TU's ISA.  Lane k
/// of pair p's accumulator is the scalar kernel's accumulator a_k, updated
/// with separate subtract, multiply and add (never FMA), so the results
/// are the scalar bits.  Callers must also check cpu_supports_avx2_fma().
[[nodiscard]] SquaredDistanceX4 lane_exact_squared_distance_blocked_x4() noexcept;
/// The scalar table's portable batched bodies: per-sample calls of the
/// scalar gemv, and per-row calls of the scalar axpy, samples in order.
/// What the entries run without the lane-exact encodings, and the
/// reference those are pinned to.
[[nodiscard]] GemvRows portable_gemv_rows() noexcept;
[[nodiscard]] OuterAccumulateRows portable_outer_accumulate_rows() noexcept;
/// The lane-exact AVX encodings of the scalar batched entries (defined in
/// simd_avx2.cpp), or nullptr when the build lacks that TU's ISA.  The
/// forward keeps row r0 + k's strict double chain in lane k (separate
/// multiply and add, columns in order); the backward adds each sample's
/// float product to an 8-float span in order of s (separate multiply and
/// add).  Callers must also check cpu_supports_avx2_fma().
[[nodiscard]] GemvRows lane_exact_gemv_rows() noexcept;
[[nodiscard]] OuterAccumulateRows lane_exact_outer_accumulate_rows() noexcept;
}  // namespace detail

}  // namespace fairbfl::support::simd
