# praft_bench sim-clock rows golden: extracts every row of a praft_bench
# --json file whose clock is "sim" and compares them, in order and byte for
# byte, with tests/golden/praft_bench_sim.txt (one row per line, as --json
# prints it). Sim-clock rows are pure functions of the workloads and seeds,
# so a row that moves is a trajectory change, gated at zero tolerance like
# the BENCH_*.json rows. Host-clock rows (timings, RSS) are left out.
#
#   .bench_build/praft_bench/praft_bench --quick --trace --json=bench_smoke.json
#   cmake -DJSON=bench_smoke.json -DSOURCE_DIR=. \
#       -P tests/praft_bench_sim_golden.cmake
#
# On a mismatch it lists each committed row it did not reproduce and writes
# the rows it found to praft_bench_sim_actual.txt in the working directory.
# Add -DUPDATE=ON to rewrite the golden after an intended trajectory change.

cmake_minimum_required(VERSION 3.16)

set(golden "${SOURCE_DIR}/tests/golden/praft_bench_sim.txt")

file(READ "${JSON}" json)
# Every row is a flat object on one line.
string(REGEX MATCHALL "{\"workload\": [^{}\n]*\"clock\": \"sim\"[^{}\n]*}"
       rows "${json}")
list(LENGTH rows count)
if(count EQUAL 0)
  message(FATAL_ERROR "${JSON} holds no sim-clock rows")
endif()
list(JOIN rows "\n" actual)
string(APPEND actual "\n")

if(UPDATE)
  file(WRITE "${golden}" "${actual}")
  message(STATUS "wrote ${count} rows to ${golden}")
  return()
endif()

file(READ "${golden}" expected)
if(actual STREQUAL expected)
  message(STATUS "${count} sim-clock rows match ${golden}")
  return()
endif()

set(out "${CMAKE_CURRENT_BINARY_DIR}/praft_bench_sim_actual.txt")
file(WRITE "${out}" "${actual}")
string(STRIP "${expected}" want)
string(REPLACE "\n" ";" want "${want}")
foreach(line IN LISTS want)
  list(FIND rows "${line}" at)
  if(at EQUAL -1)
    message(STATUS "sim row not reproduced: ${line}")
  endif()
endforeach()
message(FATAL_ERROR "praft_bench sim-clock rows differ from ${golden} "
                    "(actual rows in ${out})")
