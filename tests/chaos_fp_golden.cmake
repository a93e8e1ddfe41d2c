# Chaos trajectory golden: runs chaos_runner --verbose over a fixed set of
# legs and diffs every run line (verdict, coverage counters, trace
# fingerprint) against tests/golden/chaos_fp.txt. Any change to a chaos
# trajectory — a refactor that was meant to be behaviour-neutral, or a
# protocol change — shows up here as a named, seed-level diff.
#
#   cmake -DRUNNER=build/tools/chaos_runner -DSOURCE_DIR=. \
#         -P tests/chaos_fp_golden.cmake
#
# Add -DUPDATE=ON to rewrite the golden after an intended trajectory change
# (and write the cause down next to the commit).

set(legs
    "--seeds=5"
    "--seeds=3 --restarts --compaction-cap=64"
    "--seeds=3 --groups=3 --restarts"
    "--seeds=2 --wan --restarts"
    "--seed-file=tools/chaos_corpus.txt"
    # Mencius under heavy churn: snapshot installs, revocations and restarts
    # exercise every path that moves its slot and owner-floor bookkeeping.
    "--protocol=mencius --seeds=40 --restarts --compaction-cap=16"
    "--protocol=mencius --seeds=40 --wan --restarts --compaction-cap=64"
    # MultiPaxos snapshot paths: installs after compaction, restarts that
    # recover from a snapshot plus WAL suffix, flat and sharded.
    "--protocol=multipaxos --seeds=40 --restarts --compaction-cap=16"
    "--protocol=multipaxos --seeds=20 --groups=3 --restarts --compaction-cap=64"
    # Raft-family snapshot paths: InstallSnapshot on both the keep-suffix and
    # the reset branch, and restarts that recover from a snapshot, flat and
    # sharded.
    "--protocol=raft --seeds=40 --restarts --compaction-cap=16"
    "--protocol=raftstar --seeds=40 --restarts --compaction-cap=16"
    "--protocol=raftstar --seeds=20 --groups=3 --restarts --compaction-cap=16")
set(golden "${SOURCE_DIR}/tests/golden/chaos_fp.txt")

set(actual "")
foreach(leg IN LISTS legs)
  separate_arguments(args UNIX_COMMAND "${leg}")
  execute_process(COMMAND "${RUNNER}" --verbose ${args}
                  WORKING_DIRECTORY "${SOURCE_DIR}"
                  OUTPUT_VARIABLE out)
  # The closing summary line carries wall-clock time; everything else is a
  # pure function of the seeds and flags.
  string(REGEX REPLACE "chaos: [^\n]*\n" "" out "${out}")
  string(APPEND actual "## ${leg}\n${out}")
endforeach()

if(UPDATE)
  file(WRITE "${golden}" "${actual}")
  message(STATUS "wrote ${golden}")
  return()
endif()

file(READ "${golden}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${CMAKE_CURRENT_BINARY_DIR}/chaos_fp_actual.txt" "${actual}")
  string(REPLACE "\n" ";" want "${expected}")
  string(REPLACE "\n" ";" got "${actual}")
  foreach(line IN LISTS want)
    list(FIND got "${line}" at)
    if(at EQUAL -1)
      message(STATUS "golden line not reproduced: ${line}")
    endif()
  endforeach()
  message(FATAL_ERROR
          "chaos trajectories differ from ${golden}; full output in "
          "${CMAKE_CURRENT_BINARY_DIR}/chaos_fp_actual.txt")
endif()
