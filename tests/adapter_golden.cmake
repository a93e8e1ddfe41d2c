# Replica-adapter golden: runs the binaries that drive every server adapter
# and the SystemKind factories, and diffs their deterministic output against
# tests/golden/adapters.txt byte for byte. chaos_fp_golden pins only
# registry-built LogServers; this pins the rest:
#   - fig9a_read_latency --json: Raft, Raft*, Raft*-LL and Raft*-PQL;
#   - fig10c_mencius_lat_8b --json: Raft, Raft*, and Raft*-Mencius (early
#     ack) at 0% and 100% conflicts;
#   - fig10d_mencius_lat_4kb --json: the same systems plus Raft-Seoul with
#     per-site NIC egress modeled (ClusterConfig::replica_egress, which only
#     Fig. 10b and 10d set; 10d is the quick one);
#   - the stdout of four examples (registry Raft*, a factory-built Raft*
#     failover, PQL local reads, Mencius skips).
#
#   cmake -DFIG9A=build/bench/fig9a_read_latency \
#         -DFIG10C=build/bench/fig10c_mencius_lat_8b \
#         -DFIG10D=build/bench/fig10d_mencius_lat_4kb \
#         -DEXAMPLE_DIR=build/examples -DSOURCE_DIR=. \
#         -P tests/adapter_golden.cmake
#
# Add -DUPDATE=ON to rewrite the golden after an intended trajectory change
# (and write the cause down next to the commit).

set(golden "${SOURCE_DIR}/tests/golden/adapters.txt")
set(actual "")

foreach(bench IN ITEMS FIG9A FIG10C FIG10D)
  get_filename_component(name "${${bench}}" NAME_WE)
  set(json "${CMAKE_CURRENT_BINARY_DIR}/adapter_golden_${name}.json")
  execute_process(COMMAND "${${bench}}" "--json=${json}"
                  OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} --json exited with ${rc}")
  endif()
  file(READ "${json}" out)
  file(REMOVE "${json}")
  string(APPEND actual "## ${name} --json\n${out}")
endforeach()

foreach(example IN ITEMS quickstart fault_tolerance geo_local_reads
                         load_balanced_log)
  execute_process(COMMAND "${EXAMPLE_DIR}/${example}"
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${example} exited with ${rc}")
  endif()
  string(APPEND actual "## ${example}\n${out}")
endforeach()

if(UPDATE)
  file(WRITE "${golden}" "${actual}")
  message(STATUS "wrote ${golden}")
  return()
endif()

file(READ "${golden}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${CMAKE_CURRENT_BINARY_DIR}/adapters_actual.txt" "${actual}")
  string(REPLACE "\n" ";" want "${expected}")
  string(REPLACE "\n" ";" got "${actual}")
  foreach(line IN LISTS want)
    list(FIND got "${line}" at)
    if(at EQUAL -1)
      message(STATUS "golden line not reproduced: ${line}")
    endif()
  endforeach()
  message(FATAL_ERROR
          "adapter trajectories differ from ${golden}; full output in "
          "${CMAKE_CURRENT_BINARY_DIR}/adapters_actual.txt")
endif()
