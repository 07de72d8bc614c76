// Startup resolution of the kernel dispatch tables (see the header for
// the contract). The scalar table defined here points at the verbatim
// kernels.cc oracle — under Isa::kScalar every k-class resolves to it.
#include "linalg/kernels_dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "util/check.h"

namespace dhmm::linalg::kernels {
namespace {

// The scalar "variant" is the oracle itself: same function pointers for
// every k-class, so forcing DHMM_KERNEL_ISA=scalar reproduces the
// pre-dispatch code paths exactly.
constexpr KernelTable kScalarTable = {&SumRow,
                                      &Dot,
                                      &MulRowScaledInto,
                                      &AxpyRow,
                                      &MatVecCol,
                                      &MatVecColMul,
                                      &BackwardFused,
                                      &ExpShiftRow,
                                      &ViterbiStep,
                                      Isa::kScalar,
                                      "scalar",
                                      0};

constexpr internal::IsaTables kScalarTables = {
    &kScalarTable,
    {&kScalarTable, &kScalarTable, &kScalarTable, &kScalarTable,
     &kScalarTable, &kScalarTable, &kScalarTable, &kScalarTable,
     &kScalarTable}};

bool CpuHasAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

const internal::IsaTables* TablesOrNull(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &internal::ScalarTables();
    case Isa::kAvx2:
      return internal::Avx2Tables();
    case Isa::kAvx512:
      return internal::Avx512Tables();
  }
  return nullptr;
}

bool CpuSupports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return CpuHasAvx2();
    case Isa::kAvx512:
      return CpuHasAvx512();
  }
  return false;
}

/// Parses a DHMM_KERNEL_ISA value; returns false on unrecognized input.
bool ParseIsaName(const char* s, Isa* out) {
  if (std::strcmp(s, "scalar") == 0) {
    *out = Isa::kScalar;
    return true;
  }
  if (std::strcmp(s, "avx2") == 0) {
    *out = Isa::kAvx2;
    return true;
  }
  if (std::strcmp(s, "avx512") == 0) {
    *out = Isa::kAvx512;
    return true;
  }
  return false;
}

/// StartupSummary override labels after a ForceIsaForTestOnly swap,
/// indexed by Isa. Static storage so the atomic const char* below never
/// points at transient memory.
constexpr const char* kForcedNames[] = {"forced:scalar", "forced:avx2",
                                        "forced:avx512"};

Isa DetectBest() {
  if (TablesOrNull(Isa::kAvx512) != nullptr && CpuHasAvx512()) {
    return Isa::kAvx512;
  }
  if (TablesOrNull(Isa::kAvx2) != nullptr && CpuHasAvx2()) {
    return Isa::kAvx2;
  }
  return Isa::kScalar;
}

// isa/tables/override_s are atomic only for ForceIsaForTestOnly: the
// test-only swap must not be a data race against concurrent Active()/ForK()
// readers. Production never writes after the constructor, so the loads cost
// nothing on x86. A reader racing a swap may see fields from both states;
// each field is individually valid, and bitwise contracts only ever compare
// runs with no swap in flight (the documented single-threaded-swap rule).
struct Resolution {
  std::atomic<const internal::IsaTables*> tables{nullptr};
  std::atomic<Isa> isa{Isa::kScalar};
  std::atomic<const char*> override_s{"none"};  ///< "none" | accepted env
                                                ///< value | "forced:<isa>"
  Isa detected = Isa::kScalar;  ///< best compiled-and-supported ISA

  Resolution() {
    detected = DetectBest();
    Isa chosen = detected;
    const char* ov = "none";
    if (const char* env = std::getenv("DHMM_KERNEL_ISA")) {
      Isa wanted;
      // An unrecognized value is always a bug in the caller's environment
      // (a typo would silently re-select the vector path while the caller
      // believes it pinned scalar), so it fails hard. A recognized but
      // unavailable ISA stays a warning fallback: the same script must run
      // on hosts and builds that lack the ISA.
      if (!ParseIsaName(env, &wanted)) {
        std::fprintf(stderr,
                     "[dhmm] fatal: DHMM_KERNEL_ISA=%s unrecognized "
                     "(scalar|avx2|avx512)\n",
                     env);
        std::abort();
      }
      if (!IsaAvailable(wanted)) {
        std::fprintf(stderr,
                     "[dhmm] DHMM_KERNEL_ISA=%s not available on this "
                     "host/build; using %s\n",
                     env, IsaName(detected));
      } else {
        chosen = wanted;
        ov = IsaName(wanted);
      }
    }
    const internal::IsaTables* t = TablesOrNull(chosen);
    DHMM_CHECK(t != nullptr);
    isa.store(chosen, std::memory_order_relaxed);
    override_s.store(ov, std::memory_order_relaxed);
    tables.store(t, std::memory_order_release);
  }
};

/// One-shot resolution state. Function-local static: thread-safe, runs on
/// first kernel use, and — because every table it selects from is
/// constant-initialized — safe even when that first use happens inside
/// another TU's static initializer.
Resolution& GetResolution() {
  static Resolution r;
  return r;
}

}  // namespace

const KernelTable& Active() {
  return *GetResolution().tables.load(std::memory_order_acquire)->generic;
}

const KernelTable& ForK(std::size_t k) {
  const internal::IsaTables* t =
      GetResolution().tables.load(std::memory_order_acquire);
  return k <= kMaxFixedK ? *t->by_k[k] : *t->generic;
}

Isa ActiveIsa() { return GetResolution().isa.load(std::memory_order_acquire); }

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const char* ActiveIsaName() { return IsaName(ActiveIsa()); }

std::vector<Isa> CompiledIsas() {
  std::vector<Isa> out = {Isa::kScalar};
  if (TablesOrNull(Isa::kAvx2) != nullptr) out.push_back(Isa::kAvx2);
  if (TablesOrNull(Isa::kAvx512) != nullptr) out.push_back(Isa::kAvx512);
  return out;
}

bool IsaAvailable(Isa isa) {
  return TablesOrNull(isa) != nullptr && CpuSupports(isa);
}

const KernelTable& TableFor(Isa isa, std::size_t k) {
  const internal::IsaTables* t = TablesOrNull(isa);
  DHMM_CHECK_MSG(t != nullptr, "ISA variant not compiled into this binary");
  return k <= kMaxFixedK ? *t->by_k[k] : *t->generic;
}

std::string StartupSummary() {
  const Resolution& r = GetResolution();
  std::string s = "isa=";
  s += IsaName(r.isa.load(std::memory_order_acquire));
  s += " detected=";
  s += IsaName(r.detected);
  s += " override=";
  s += r.override_s.load(std::memory_order_acquire);
  s += " fixed_k<=";
  s += std::to_string(kMaxFixedK);
  return s;
}

namespace internal {

const IsaTables& ScalarTables() { return kScalarTables; }

bool ForceIsaForTestOnly(Isa isa) {
  if (!IsaAvailable(isa)) return false;
  Resolution& r = GetResolution();
  // "forced:<isa>" (even when restoring the startup choice) keeps
  // StartupSummary() honest: a summary read after any swap is attributable
  // to the swap, never mistaken for the startup resolution.
  r.override_s.store(kForcedNames[static_cast<int>(isa)],
                     std::memory_order_relaxed);
  r.isa.store(isa, std::memory_order_relaxed);
  r.tables.store(TablesOrNull(isa), std::memory_order_release);
  return true;
}

}  // namespace internal

}  // namespace dhmm::linalg::kernels
