# Fails when a strong function of libdhmm.a is reached by no non-test
# executable and is not on the allowlist (cmake/reachable_allowlist.txt).
#
#   cmake -DBINARY_DIR=<dir> -P cmake/CheckReachable.cmake
#   cmake -DBINARY_DIR=<dir> -DSELF_TEST=ON -P cmake/CheckReachable.cmake
#
# The check configures and builds two trees under BINARY_DIR: the root
# project with tests off (the reproduction benches, the perf benches and the
# examples) and perfbench/. Both compile at -O0, so no call is inlined away,
# with -ffunction-sections, and link every executable with --gc-sections, so
# the linker drops each function no entry point reaches. A function of the
# archive (nm type T; inline and template code is weak and out of scope) that
# no executable still defines has no caller outside the tests. Google
# Benchmark must be installed: the perf benches are part of the executable
# set.
#
# SELF_TEST=ON copies the sources, adds one uncalled function to the copy,
# and passes only if the check fails on the copy and names that function.
# SOURCE_DIR defaults to the directory above this script.

if(NOT BINARY_DIR)
  message(FATAL_ERROR "usage: cmake -DBINARY_DIR=<dir> [-DSELF_TEST=ON] "
                      "-P CheckReachable.cmake")
endif()
get_filename_component(BINARY_DIR "${BINARY_DIR}" ABSOLUTE)
if(NOT SOURCE_DIR)
  get_filename_component(SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
endif()
set(allowlist "${SOURCE_DIR}/cmake/reachable_allowlist.txt")

if(SELF_TEST)
  set(copy "${BINARY_DIR}/source")
  file(REMOVE_RECURSE "${copy}")
  file(MAKE_DIRECTORY "${copy}")
  file(COPY "${SOURCE_DIR}/CMakeLists.txt" "${SOURCE_DIR}/cmake"
            "${SOURCE_DIR}/src" "${SOURCE_DIR}/bench"
            "${SOURCE_DIR}/examples" "${SOURCE_DIR}/perfbench"
       DESTINATION "${copy}")
  set(uncalled "dhmm::ReachabilitySelfTestUncalled()")
  file(APPEND "${copy}/src/util/status.cc"
       "\nnamespace dhmm {\nint ReachabilitySelfTestUncalled() { return 7; }\n}"
       "  // namespace dhmm\n")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" "-DSOURCE_DIR=${copy}"
            "-DBINARY_DIR=${BINARY_DIR}/build" -P "${CMAKE_CURRENT_LIST_FILE}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(FIND "${out}${err}" "  ${uncalled}" named)
  if(rc EQUAL 0 OR named EQUAL -1)
    message(FATAL_ERROR "self-test failed: the check exited ${rc} on a copy "
                        "with ${uncalled} added; its output:\n${out}${err}")
  endif()
  message(STATUS "self-test passed: the check names ${uncalled}")
  return()
endif()

find_program(NM nm)
if(NOT NM)
  message(FATAL_ERROR "nm not found")
endif()
cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)

# Configures and builds `source` into `binary`; optional extra arguments are
# the targets to build (all when none are given).
function(build_tree source binary)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -S "${source}" -B "${binary}"
            -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
            -DCMAKE_CXX_FLAGS=-ffunction-sections
            -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
            -DDHMM_BUILD_TESTS=OFF
    OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "configuring ${source} failed")
  endif()
  set(targets "")
  if(ARGN)
    set(targets --target ${ARGN})
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" --build "${binary}" -j ${jobs} ${targets}
    OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "building ${source} failed")
  endif()
endfunction()

# Sets `var` to the demangled names `file` defines with an nm type matching
# `types`, one list element each.
function(defined_names file types var)
  execute_process(COMMAND "${NM}" -C --defined-only "${file}"
    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${file}")
  endif()
  string(REGEX MATCHALL "[0-9a-fA-F]+ ${types} [^\n]+" lines "${out}")
  string(REGEX REPLACE "[0-9a-fA-F]+ ${types} " "" names "${lines}")
  set(${var} "${names}" PARENT_SCOPE)
endfunction()

build_tree("${SOURCE_DIR}" "${BINARY_DIR}/project")
build_tree("${SOURCE_DIR}/perfbench" "${BINARY_DIR}/perfbench" dhmm_perfbench)

file(GLOB candidates LIST_DIRECTORIES false
     "${BINARY_DIR}/project/bench/*" "${BINARY_DIR}/project/examples/*")
set(executables "${BINARY_DIR}/perfbench/dhmm_perfbench")
set(perf_benches 0)
foreach(path IN LISTS candidates)
  get_filename_component(name "${path}" NAME)
  if(name MATCHES "\\." OR name STREQUAL "Makefile")
    continue()
  endif()
  if(name MATCHES "^perf_")
    math(EXPR perf_benches "${perf_benches} + 1")
  endif()
  list(APPEND executables "${path}")
endforeach()
if(perf_benches EQUAL 0)
  message(FATAL_ERROR "no perf_* bench was built: install Google Benchmark "
                      "(the perf benches are part of the executable set)")
endif()

defined_names("${BINARY_DIR}/project/src/libdhmm.a" "T" unreached)
list(REMOVE_DUPLICATES unreached)
list(LENGTH unreached library_functions)
foreach(exe IN LISTS executables)
  defined_names("${exe}" "[A-Za-z]" reached)
  list(REMOVE_ITEM unreached ${reached})
endforeach()
list(LENGTH executables executable_count)

# Allowlist: "<demangled signature> # <test users>" per line, '#' comments.
set(allowed "")
set(bad "")
file(STRINGS "${allowlist}" entries)
foreach(entry IN LISTS entries)
  if(entry MATCHES "^[ \t]*(#|$)")
    continue()
  endif()
  if(NOT entry MATCHES "^(.*[^ ]) +# *([^ ].*)$")
    string(APPEND bad "\n  allowlist entry names no test users: ${entry}")
    continue()
  endif()
  set(signature "${CMAKE_MATCH_1}")
  list(FIND unreached "${signature}" at)
  if(at EQUAL -1)
    string(APPEND bad "\n  allowlisted but reachable or gone: ${signature}")
  endif()
  list(APPEND allowed "${signature}")
endforeach()

set(unlisted "")
foreach(name IN LISTS unreached)
  list(FIND allowed "${name}" at)
  if(at EQUAL -1)
    string(APPEND unlisted "\n  ${name}")
  endif()
endforeach()
if(unlisted)
  string(APPEND bad "\nfunctions no executable reaches (delete them, or "
                    "allowlist a test tool with its test users):${unlisted}")
endif()
if(bad)
  message(FATAL_ERROR "reachability check failed over ${executable_count} "
                      "executables:${bad}")
endif()
list(LENGTH allowed allowed_count)
message(STATUS "${executable_count} executables reach every libdhmm function "
               "but ${allowed_count} allowlisted test tools "
               "(${library_functions} functions)")
