# Runs the command-line tool CLI with ARGS and checks that it refuses the
# request: exit 1 with output matching REGEX (an `error:` line), never a
# library abort.
#
#   cmake -DCLI=path/to/mpdata_cli "-DARGS=plan --ni=3" "-DREGEX=error: ..."
#         -P cli_rejects.cmake

get_filename_component(Tool "${CLI}" NAME)
separate_arguments(ArgList UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${CLI} ${ArgList}
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err
  RESULT_VARIABLE Result)
if(NOT Result EQUAL 1)
  message(FATAL_ERROR "${Tool} ${ARGS} exited ${Result}, not 1:\n"
                      "${Out}${Err}")
endif()
if(NOT "${Out}${Err}" MATCHES "${REGEX}")
  message(FATAL_ERROR "${Tool} ${ARGS} printed no line matching "
                      "'${REGEX}':\n${Out}${Err}")
endif()
