# Saved-run round trip: what chaos_runner writes must replay the runs it came
# from, with no batch flag repeated on the replay's command line.
#
#   cmake -DRUNNER=build/tools/chaos_runner \
#         -P tests/chaos_failures_roundtrip.cmake
#
# 1. --failures-out: a 3-replica quorum-bug batch at WAN timing convicts
#    some seeds, and replaying its file with --seed-file alone must
#    convict every saved line again (each line carries --replicas=3 along
#    with the batch's other flags).
# 2. --evolve seeded from that file runs each entry under the entry's own
#    flags, not the command line's, so every saved line fails again in its
#    first generation.
# 3. --corpus-out: the "# regenerate:" header of an --evolve run names every
#    per-run flag the runs used, and rerunning it rewrites the same corpus.
#
# The saved files land in the working directory (ctest: the build tree).

set(failures "${CMAKE_CURRENT_BINARY_DIR}/chaos_roundtrip_failures.txt")
execute_process(COMMAND "${RUNNER}" --protocol=raft --replicas=3 --seeds=20
                        --inject-quorum-bug --wan "--failures-out=${failures}"
                OUTPUT_QUIET)
file(STRINGS "${failures}" saved REGEX "^[a-z]+ [0-9]+ ")
if(NOT saved)
  message(FATAL_ERROR "the quorum-bug batch saved no failing run")
endif()
# Every saved line must show up as a failure in `output`.
function(expect_saved_failures output how)
  foreach(line IN LISTS saved)
    string(REGEX MATCH "^([a-z]+) ([0-9]+) " run "${line}")
    if(NOT output MATCHES
       "FAIL protocol=${CMAKE_MATCH_1} seed=${CMAKE_MATCH_2}\n")
      message(SEND_ERROR "saved failure passes ${how}: ${line}")
    endif()
  endforeach()
endfunction()
execute_process(COMMAND "${RUNNER}" "--seed-file=${failures}"
                OUTPUT_VARIABLE replay)
expect_saved_failures("${replay}" "on replay")
execute_process(COMMAND "${RUNNER}" --protocol=raft --evolve=1 --population=2
                        --elite=1 "--seed-file=${failures}"
                OUTPUT_VARIABLE evolved)
expect_saved_failures("${evolved}" "under --evolve")

set(corpus "${CMAKE_CURRENT_BINARY_DIR}/chaos_roundtrip_corpus.txt")
set(regenerated "${CMAKE_CURRENT_BINARY_DIR}/chaos_roundtrip_regenerated.txt")
execute_process(COMMAND "${RUNNER}" --protocol=raft --evolve=1 --population=2
                        --elite=1 --wan --groups=2 --compaction-cap=64
                        "--corpus-out=${corpus}"
                OUTPUT_QUIET)
file(STRINGS "${corpus}" header REGEX "^# regenerate: chaos_runner ")
foreach(flag --wan --groups=2 --compaction-cap=64)
  if(NOT header MATCHES " ${flag} ")
    message(SEND_ERROR "corpus header leaves out ${flag}: ${header}")
  endif()
endforeach()
string(REGEX REPLACE "^# regenerate: chaos_runner " "" command "${header}")
string(REPLACE "<this file>" "${regenerated}" command "${command}")
separate_arguments(args UNIX_COMMAND "${command}")
execute_process(COMMAND "${RUNNER}" ${args} OUTPUT_QUIET)
file(READ "${corpus}" want)
file(READ "${regenerated}" got)
if(NOT got STREQUAL want)
  message(SEND_ERROR "the corpus header's command writes a different corpus")
endif()
