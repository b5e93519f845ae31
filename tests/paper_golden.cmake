# Diffs the performance model's text against tests/golden/:
#  - paper_tables.txt: the stdout of bench/paper_tables, with its
#    `wrote <dir>/BENCH_x.json` lines cut to `wrote BENCH_x.json`;
#  - model_sweep.txt: mpdata_cli traffic and simulate over 4 workloads x
#    3 strategies x temporal depths {1, 2, 4} x 3 page placements (216
#    runs) on 96x64x16, 8 steps, 4 sockets, cost-balanced cuts.
# The actual text lands next to the BENCH_*.json in OUT. On a mismatch
# the test prints the diff and the command that copies the actual text
# over the golden. A change that moves a model digit does that and says
# why.
#
#   cmake -DDRIVER=path/to/paper_tables -DCLI=path/to/mpdata_cli
#         -DGOLDEN=tests/golden -DOUT=scratch/dir -P paper_golden.cmake

file(MAKE_DIRECTORY ${OUT})
set(ENV{ICORES_BENCH_DIR} ${OUT})
find_program(DIFF diff)

# Writes the actual text to OUT/NAME and fails the test, showing the diff,
# unless it equals GOLDEN/NAME byte for byte.
function(check_golden Name Text)
  file(WRITE ${OUT}/${Name} "${Text}")
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${GOLDEN}/${Name} ${OUT}/${Name}
                  RESULT_VARIABLE Differs)
  if(Differs)
    if(DIFF)
      execute_process(COMMAND ${DIFF} -u ${GOLDEN}/${Name} ${OUT}/${Name})
    endif()
    message(SEND_ERROR "${Name} differs from its golden. If the model "
                       "change is meant, accept the new text with:\n"
                       "  cp ${OUT}/${Name} ${GOLDEN}/${Name}")
  endif()
endfunction()

execute_process(COMMAND ${DRIVER} OUTPUT_VARIABLE Tables
                ERROR_VARIABLE Err RESULT_VARIABLE Result)
if(NOT Result EQUAL 0)
  message(SEND_ERROR "paper_tables exited ${Result}:\n${Err}")
endif()
string(REGEX REPLACE "wrote [^\n]*/(BENCH_[^/\n]*\\.json)" "wrote \\1"
       Tables "${Tables}")
check_golden(paper_tables.txt "${Tables}")

set(Sweep "")
foreach(Workload mpdata advdiff cfl-advect hotspot)
  foreach(Strategy original 31d islands)
    foreach(Temporal 1 2 4)
      foreach(Place none firsttouch interleave)
        foreach(Mode traffic simulate)
          set(Args ${Mode} --workload=${Workload} --strategy=${Strategy}
                   --temporal=${Temporal} --place=${Place} --ni=96 --nj=64
                   --nk=16 --steps=8 --sockets=4 --balance=cost)
          execute_process(COMMAND ${CLI} ${Args} OUTPUT_VARIABLE Out
                          ERROR_VARIABLE Out RESULT_VARIABLE Result)
          string(JOIN " " Line ${Args})
          string(APPEND Sweep "$ mpdata_cli ${Line}\n${Out}")
          if(NOT Result EQUAL 0)
            string(APPEND Sweep "(exit ${Result})\n")
          endif()
        endforeach()
      endforeach()
    endforeach()
  endforeach()
endforeach()
check_golden(model_sweep.txt "${Sweep}")
