# Runs TOOL once per built-in workload its usage text lists
# ("--workload a|b|c") and expects every run to work: lbp_prof must exit
# 0, and lbp_triage must report both of its sides "exited". A workload a
# tool offers must be one it can run.
#
#   cmake -DTOOL=path/to/lbp_prof -P tool_workloads.cmake
if(NOT TOOL)
  message(FATAL_ERROR "pass -DTOOL=<lbp_prof or lbp_triage binary>")
endif()
get_filename_component(Name "${TOOL}" NAME)
execute_process(COMMAND ${TOOL} --help
                OUTPUT_VARIABLE Out ERROR_VARIABLE Usage TIMEOUT 10)
if(NOT Usage MATCHES "--workload ([a-z|-]+)")
  message(FATAL_ERROR "${Name}: no --workload list in the usage text\n"
                      "${Usage}")
endif()
string(REPLACE "|" ";" Workloads "${CMAKE_MATCH_1}")

foreach(W IN LISTS Workloads)
  execute_process(COMMAND ${TOOL} --workload ${W}
                  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out
                  ERROR_VARIABLE Err TIMEOUT 120)
  if(Name MATCHES "triage")
    string(REGEX MATCHALL "\"status\":\"exited\"" Exited "${Out}")
    list(LENGTH Exited Sides)
    if(NOT Rc EQUAL 0 OR NOT Sides EQUAL 2)
      message(FATAL_ERROR "${Name} --workload ${W}: exit '${Rc}', "
                          "${Sides} of 2 sides exited\n${Out}${Err}")
    endif()
  elseif(NOT Rc EQUAL 0)
    message(FATAL_ERROR "${Name} --workload ${W}: exit '${Rc}', want 0\n"
                        "${Out}${Err}")
  endif()
endforeach()
