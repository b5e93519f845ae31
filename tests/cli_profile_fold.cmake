# Runs `mpdata_cli execute --profile` on a workload with reductions and on
# one without, and checks that only the first prints the fold line.
#
#   cmake -DCLI=path/to/mpdata_cli -P cli_profile_fold.cmake

foreach(Workload cfl-advect hotspot)
  execute_process(
    COMMAND ${CLI} execute --workload=${Workload}
            --profile=${Workload}-fold.profile.json
    OUTPUT_VARIABLE Out
    RESULT_VARIABLE Result)
  if(NOT Result EQUAL 0)
    message(FATAL_ERROR "${Workload}: mpdata_cli exited ${Result}:\n${Out}")
  endif()
  string(FIND "${Out}" "profile: reduction fold" At)
  if(Workload STREQUAL "cfl-advect" AND At EQUAL -1)
    message(FATAL_ERROR "cfl-advect: no reduction fold line:\n${Out}")
  elseif(Workload STREQUAL "hotspot" AND NOT At EQUAL -1)
    message(FATAL_ERROR "hotspot: unexpected reduction fold line:\n${Out}")
  endif()
endforeach()
