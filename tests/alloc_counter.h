// Process-wide heap-allocation counters for the allocation-pinning suites.
//
// alloc_counter.cc replaces the global operator new / delete family, so in
// a test binary built with it every heap allocation made anywhere bumps
// the counters: a zero Count() delta across a call proves the call is
// allocation-free, and a Bytes() delta bounds how much it allocated.
// linalg::AlignedAllocator routes through the plain operator new on
// purpose (see linalg/aligned.h), so aligned buffers are counted too.
#ifndef DHMM_TESTS_ALLOC_COUNTER_H_
#define DHMM_TESTS_ALLOC_COUNTER_H_

namespace dhmm::alloc_counter {

/// Calls to operator new / new[] since the process started.
long Count();

/// Bytes requested from operator new / new[] since the process started.
long long Bytes();

}  // namespace dhmm::alloc_counter

#endif  // DHMM_TESTS_ALLOC_COUNTER_H_
