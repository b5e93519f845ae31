# Runs `mpdata_cli execute --profile` on cfl-advect (the workload with
# reductions, so the record carries fold times) and checks that
# bench/validate_bench_json.py accepts the record it wrote.
#
#   cmake -DCLI=path/to/mpdata_cli -DPYTHON=python3 \
#         -DVALIDATOR=bench/validate_bench_json.py -P cli_profile_validates.cmake

set(Record cfl-advect-validate.profile.json)
file(REMOVE ${Record})
execute_process(
  COMMAND ${CLI} execute --workload=cfl-advect --profile=${Record}
  OUTPUT_VARIABLE Out
  RESULT_VARIABLE Result)
if(NOT Result EQUAL 0)
  message(FATAL_ERROR "mpdata_cli exited ${Result}:\n${Out}")
endif()
execute_process(
  COMMAND ${PYTHON} ${VALIDATOR} ${Record}
  OUTPUT_VARIABLE Out
  RESULT_VARIABLE Result)
if(NOT Result EQUAL 0)
  message(FATAL_ERROR "validate_bench_json.py exited ${Result}:\n${Out}")
endif()
