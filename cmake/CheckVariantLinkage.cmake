# Fails when a SIMD variant object (kernels_avx2.cc, kernels_avx512.cc)
# defines a symbol with global, weak or unique linkage other than its
# internal::Avx2Tables() / internal::Avx512Tables() getter.
#
#   cmake -DNM=<nm> "-DOBJECTS=<object;...>" -P CheckVariantLinkage.cmake
#
# The two TUs are compiled with different -m flags. A template or inline
# function either one defines with vague (COMDAT) linkage is merged at link
# time: the linker keeps one arbitrary copy, so an AVX-512 copy could be
# called from the AVX2 tables and fault on an AVX2-only CPU. That is why
# linalg/kernels_simd.h and the traits structs sit in anonymous namespaces;
# this check catches anything that escapes them.

set(getter_re "^_*ZN4dhmm6linalg7kernels8internal(10Avx2|12Avx512)TablesEv$")
set(checked 0)
set(bad "")
foreach(obj IN LISTS OBJECTS)
  if(NOT obj MATCHES "kernels_avx(2|512)\\.cc\\.o(bj)?$")
    continue()
  endif()
  math(EXPR checked "${checked} + 1")
  execute_process(COMMAND "${NM}" --defined-only "${obj}"
    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${obj}")
  endif()
  string(REPLACE "\n" ";" lines "${out}")
  foreach(line IN LISTS lines)
    # "<address> <type> <name>": an uppercase type is global; u is unique
    # global, v and w are weak.
    if(NOT line MATCHES "^[0-9a-fA-F]* ([A-Zuvw]) (.*)$")
      continue()
    endif()
    set(type "${CMAKE_MATCH_1}")
    set(name "${CMAKE_MATCH_2}")
    if(NOT name MATCHES "${getter_re}")
      string(APPEND bad "\n  ${obj}: ${type} ${name}")
    endif()
  endforeach()
endforeach()

if(NOT checked EQUAL 2)
  message(FATAL_ERROR "expected the two variant objects, found ${checked}")
endif()
if(bad)
  message(FATAL_ERROR
    "variant TUs define non-internal symbols (demangle with c++filt); "
    "keep kernels and helpers in an anonymous namespace:${bad}")
endif()
message(STATUS "variant objects define only their table getters")
