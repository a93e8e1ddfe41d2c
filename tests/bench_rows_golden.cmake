# Sim-time bench rows golden: regenerates committed BENCH_*.json files into
# the build tree and compares each byte for byte with the committed file.
# Every row of these benches is a pure function of the bench's seed, so a
# row that moves is a trajectory change, gated at zero tolerance. Each file
# holds one row per line, so the rows listed on failure are exactly the ones
# that moved.
#
#   cd build && cmake -DBENCH_DIR=bench -DSOURCE_DIR=.. \
#       -P ../tests/bench_rows_golden.cmake
#
# By default it covers the five quick benches (recovery, catchup_snapshot,
# pipeline, fig9b and fig10b: ~18 s together). -DSLOW=ON covers the four slow
# ones instead: fig9c, fig9d, shard_scaling and fig10a (~2 min).
# BENCH_wire.json is left out: its codec rows are host timings, not sim-time
# rows. Regenerated files are written to the working directory, and kept
# there only when they differ.

cmake_minimum_required(VERSION 3.16)

if(SLOW)
  set(benches
      "fig9c=fig9c_peak_throughput"
      "fig9d=fig9d_conflict_speedup"
      "shard_scaling=shard_scaling"
      "fig10a=fig10a_mencius_tput_8b")
else()
  set(benches
      "recovery=recovery_time"
      "catchup_snapshot=catchup_snapshot"
      "pipeline=pipeline_tput"
      "fig9b=fig9b_write_latency"
      "fig10b=fig10b_mencius_tput_4kb")
endif()

set(moved "")
foreach(entry IN LISTS benches)
  string(REPLACE "=" ";" pair "${entry}")
  list(GET pair 0 name)
  list(GET pair 1 binary)
  set(committed "${SOURCE_DIR}/BENCH_${name}.json")
  set(regenerated "${CMAKE_CURRENT_BINARY_DIR}/bench_rows_${name}.json")
  execute_process(COMMAND "${BENCH_DIR}/${binary}" "--json=${regenerated}"
                  OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${binary} --json exited with ${rc}")
  endif()
  file(READ "${committed}" want)
  file(READ "${regenerated}" got)
  if(got STREQUAL want)
    file(REMOVE "${regenerated}")
    continue()
  endif()
  # Brackets would keep CMake from splitting a line list at ';'.
  foreach(text IN ITEMS want got)
    string(REPLACE "[" "(" ${text} "${${text}}")
    string(REPLACE "]" ")" ${text} "${${text}}")
    string(REPLACE "\n" ";" ${text} "${${text}}")
  endforeach()
  foreach(line IN LISTS want)
    list(FIND got "${line}" at)
    if(at EQUAL -1)
      message(STATUS "BENCH_${name}.json row not reproduced: ${line}")
    endif()
  endforeach()
  list(APPEND moved "BENCH_${name}.json (regenerated as ${regenerated})")
endforeach()

if(moved)
  message(FATAL_ERROR "sim-time bench rows differ from the committed files: "
                      "${moved}")
endif()
