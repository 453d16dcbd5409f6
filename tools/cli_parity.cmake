# Checks that `m3dfl_tool diagnose` and `m3dfl_tool serve` print the same
# "GNN verdict:" and "calibrated confidence:" lines for one failure log:
#   cmake -DTOOL=<m3dfl_tool> -DDIR=<dir> -P cli_parity.cmake
# DIR holds cli_model.m3dfl and die.flog, its only *.flog file.
function(verdict_lines out_var)
  execute_process(COMMAND ${TOOL} ${ARGN} OUTPUT_VARIABLE output
                  RESULT_VARIABLE status)
  string(REGEX MATCHALL "(GNN verdict|calibrated confidence):[^\n]*"
         lines "${output}")
  if(NOT status EQUAL 0 OR NOT lines)
    message(FATAL_ERROR "m3dfl_tool ${ARGN} failed (${status}):\n${output}")
  endif()
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

verdict_lines(diagnosed diagnose aes ${DIR}/cli_model.m3dfl ${DIR}/die.flog)
verdict_lines(served serve aes ${DIR}/cli_model.m3dfl ${DIR} syn1 1)
if(NOT diagnosed STREQUAL served)
  message(FATAL_ERROR "diagnose printed ${diagnosed}\nserve printed ${served}")
endif()
