// Replacement global operator new / delete that count every allocation.
// Kept in its own translation unit: when the replacements are defined next
// to the code that calls new, GCC inlines them and flags every new/free
// pairing it can see (-Wmismatched-new-delete).
#include "alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<long> g_count{0};
std::atomic<long long> g_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(static_cast<long long>(size), std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace dhmm::alloc_counter {

long Count() { return g_count.load(std::memory_order_relaxed); }

long long Bytes() { return g_bytes.load(std::memory_order_relaxed); }

}  // namespace dhmm::alloc_counter

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
