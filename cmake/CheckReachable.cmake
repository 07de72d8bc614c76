# Fails when a function defined in src/ is reached by tests but by no non-test
# executable, or when a strong function of libdhmm.a is reached by no non-test
# executable, and cmake/reachable_allowlist.txt does not list it.
#
#   cmake -DBINARY_DIR=<dir> -P cmake/CheckReachable.cmake
#   cmake -DBINARY_DIR=<dir> -DSELF_TEST=ON -P cmake/CheckReachable.cmake
#
# The check configures and builds two trees under BINARY_DIR: the root
# project with tests on (the gtest suites, the reproduction benches, the perf
# benches and the examples) and perfbench/. Both compile at -O0 -g, so no call
# is inlined away and every function keeps its source line, with
# -ffunction-sections, and link every executable with --gc-sections, so the
# linker drops each function no entry point reaches. What a non-test
# executable (a bench, an example or perfbench) still defines is reached
# outside the tests. Two rules follow:
#
#  - A function is identified by its definition site, the file:line that
#    `nm -C -l` prints, so inline and template code counts, and every
#    instantiation of one template member is one site. A site under src/ that
#    some test executable defines and no non-test executable defines is
#    reached only by tests. Test-local code has its site under tests/ and
#    never counts.
#  - A strong function of the archive (nm type T) that no non-test executable
#    defines has no caller outside the tests, whether or not a test calls it.
#
# Neither rule sees a template member that nothing instantiates: it leaves no
# symbol in any binary, so it has to be found by reading. Google Benchmark must
# be installed: the perf benches are part of the non-test executable set.
#
# SELF_TEST=ON copies the sources, adds to the copy one uncalled function and
# one inline function in a src/ header that only a test calls, and passes only
# if the check fails on the copy and names both. SOURCE_DIR defaults to the
# directory above this script.

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
            "${SOURCE_DIR}/src" "${SOURCE_DIR}/tests" "${SOURCE_DIR}/bench"
            "${SOURCE_DIR}/examples" "${SOURCE_DIR}/perfbench"
       DESTINATION "${copy}")
  set(uncalled "dhmm::ReachabilitySelfTestUncalled()")
  file(APPEND "${copy}/src/util/status.cc"
       "\nnamespace dhmm {\nint ReachabilitySelfTestUncalled() { return 7; }\n}"
       "  // namespace dhmm\n")
  set(test_only "dhmm::ReachabilitySelfTestTestOnly()")
  file(WRITE "${copy}/src/util/reachability_self_test.h"
       "#pragma once\nnamespace dhmm {\n"
       "inline int ReachabilitySelfTestTestOnly() { return 11; }\n}"
       "  // namespace dhmm\n")
  file(APPEND "${copy}/tests/util_test.cc"
       "\n#include \"util/reachability_self_test.h\"\n"
       "TEST(ReachabilitySelfTest, TestOnly) {\n"
       "  EXPECT_EQ(dhmm::ReachabilitySelfTestTestOnly(), 11);\n}\n")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" "-DSOURCE_DIR=${copy}"
            "-DBINARY_DIR=${BINARY_DIR}/build" -P "${CMAKE_CURRENT_LIST_FILE}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(FIND "${out}${err}" "  ${uncalled}" named_uncalled)
  string(FIND "${out}${err}" "  ${test_only}" named_test_only)
  if(rc EQUAL 0 OR named_uncalled EQUAL -1 OR named_test_only EQUAL -1)
    message(FATAL_ERROR "self-test failed: the check exited ${rc} on a copy "
                        "with ${uncalled} and ${test_only} added; its "
                        "output:\n${out}${err}")
  endif()
  message(STATUS "self-test passed: the check names ${uncalled} and "
                 "${test_only}")
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
            -DCMAKE_BUILD_TYPE=Debug "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g"
            -DCMAKE_CXX_FLAGS=-ffunction-sections
            -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
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

# Reads `nm -C -l --defined-only file`. Sets `names_var` to the demangled
# names of the symbols with an nm type matching `types`, and `sites_var` and
# `entries_var` to the src/ definition sites of the functions ("src/x.h:12")
# and to "<site> <name>" for each of them, one list element each.
function(read_symbols file types names_var sites_var entries_var)
  execute_process(COMMAND "${NM}" -C -l --defined-only "${file}"
    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${file}")
  endif()
  string(REGEX MATCHALL "[0-9a-fA-F]+ ${types} [^\n\t]+" names "${out}")
  string(REGEX REPLACE "[0-9a-fA-F]+ ${types} " "" names "${names}")
  string(REPLACE "\t${SOURCE_DIR}/src/" "\tsrc/" out "${out}")
  string(REGEX MATCHALL "[0-9a-fA-F]+ [TtWw] [^\n\t]+\tsrc/[^\n\t:]+:[0-9]+"
         lines "${out}")
  set(function "[0-9a-fA-F]+ [TtWw] ([^\n\t]+)\t(src/[^\n\t:]+:[0-9]+)")
  string(REGEX REPLACE "${function}" "\\2" sites "${lines}")
  string(REGEX REPLACE "${function}" "\\2 \\1" entries "${lines}")
  list(REMOVE_DUPLICATES sites)
  set(${names_var} "${names}" PARENT_SCOPE)
  set(${sites_var} "${sites}" PARENT_SCOPE)
  set(${entries_var} "${entries}" PARENT_SCOPE)
endfunction()

# Sets `var` to the executables directly under each directory given after it.
function(executables_in var)
  set(found "")
  foreach(dir IN LISTS ARGN)
    file(GLOB paths LIST_DIRECTORIES false "${dir}/*")
    foreach(path IN LISTS paths)
      get_filename_component(name "${path}" NAME)
      if(NOT name MATCHES "\\." AND NOT name STREQUAL "Makefile")
        list(APPEND found "${path}")
      endif()
    endforeach()
  endforeach()
  set(${var} "${found}" PARENT_SCOPE)
endfunction()

build_tree("${SOURCE_DIR}" "${BINARY_DIR}/project")
build_tree("${SOURCE_DIR}/perfbench" "${BINARY_DIR}/perfbench" dhmm_perfbench)

executables_in(executables "${BINARY_DIR}/project/bench"
               "${BINARY_DIR}/project/examples")
set(perf_benches "${executables}")
list(FILTER perf_benches INCLUDE REGEX "/perf_[^/]*$")
if(NOT perf_benches)
  message(FATAL_ERROR "no perf_* bench was built: install Google Benchmark "
                      "(the perf benches are part of the executable set)")
endif()
list(APPEND executables "${BINARY_DIR}/perfbench/dhmm_perfbench")
executables_in(tests "${BINARY_DIR}/project/tests")
if(NOT tests)
  message(FATAL_ERROR "no test executable was built")
endif()

read_symbols("${BINARY_DIR}/project/src/libdhmm.a" "T" unreached sites entries)
list(REMOVE_DUPLICATES unreached)
list(LENGTH unreached library_functions)
set(reached_sites "")
foreach(exe IN LISTS executables)
  read_symbols("${exe}" "[A-Za-z]" reached sites entries)
  list(REMOVE_ITEM unreached ${reached})
  list(APPEND reached_sites ${sites})
endforeach()
list(REMOVE_DUPLICATES reached_sites)
if(NOT reached_sites)
  message(FATAL_ERROR "nm -C -l printed no definition site under "
                      "${SOURCE_DIR}/src: the site rule would check nothing")
endif()
set(test_sites "")
set(test_entries "")
foreach(exe IN LISTS tests)
  read_symbols("${exe}" "T" names sites entries)
  list(APPEND test_sites ${sites})
  list(APPEND test_entries ${entries})
endforeach()
list(REMOVE_DUPLICATES test_sites)
list(REMOVE_ITEM test_sites ${reached_sites})
list(SORT test_sites)
list(LENGTH executables executable_count)
list(LENGTH tests test_count)

# "<site> <name>" for each function at a site only tests reach.
set(test_only "")
list(REMOVE_DUPLICATES test_entries)
foreach(site IN LISTS test_sites)
  string(REPLACE "." "\\." site_regex "${site}")
  set(found "${test_entries}")
  list(FILTER found INCLUDE REGEX "^${site_regex} ")
  list(APPEND test_only ${found})
endforeach()

# Allowlist: "<demangled signature> # <test users>" per line, '#' comments.
# An entry covers an unreached strong function of that name, or every
# function at a test-only site where nm prints that name.
set(allowed "")
set(allowed_sites "")
set(bad "")
file(STRINGS "${allowlist}" lines)
foreach(line IN LISTS lines)
  if(line MATCHES "^[ \t]*(#|$)")
    continue()
  endif()
  if(NOT line MATCHES "^(.*[^ ]) +# *([^ ].*)$")
    string(APPEND bad "\n  allowlist entry names no test users: ${line}")
    continue()
  endif()
  set(signature "${CMAKE_MATCH_1}")
  list(FIND unreached "${signature}" at)
  set(matched OFF)
  if(NOT at EQUAL -1)
    set(matched ON)
  endif()
  foreach(entry IN LISTS test_only)
    if(entry MATCHES "^([^ ]+) (.*)$" AND CMAKE_MATCH_2 STREQUAL signature)
      list(APPEND allowed_sites "${CMAKE_MATCH_1}")
      set(matched ON)
    endif()
  endforeach()
  if(NOT matched)
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
set(unlisted "")
foreach(entry IN LISTS test_only)
  if(entry MATCHES "^([^ ]+) (.*)$")
    list(FIND allowed_sites "${CMAKE_MATCH_1}" at)
    if(at EQUAL -1)
      string(APPEND unlisted "\n  ${CMAKE_MATCH_1}  ${CMAKE_MATCH_2}")
    endif()
  endif()
endforeach()
if(unlisted)
  string(APPEND bad "\nsrc/ functions only tests reach (delete them, or "
                    "allowlist a test tool with its test users):${unlisted}")
endif()
if(bad)
  message(FATAL_ERROR "reachability check failed over ${executable_count} "
                      "executables and ${test_count} tests:${bad}")
endif()
list(LENGTH allowed allowed_count)
list(LENGTH reached_sites site_count)
message(STATUS "${executable_count} executables reach ${library_functions} "
               "libdhmm functions and ${site_count} src/ function sites: "
               "every one the ${test_count} tests reach but "
               "${allowed_count} allowlisted test tools")
