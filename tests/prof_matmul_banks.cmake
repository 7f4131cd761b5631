# Profiles `--workload matmul` on 4 cores and expects every global bank
# to serve reads: the distributed kernel must be laid out for the banks
# the tool simulates, so its accesses spread over all of them.
#
#   cmake -DTOOL=path/to/lbp_prof -DOUT=counters.json \
#         -P prof_matmul_banks.cmake
if(NOT TOOL OR NOT OUT)
  message(FATAL_ERROR "pass -DTOOL=<lbp_prof binary> -DOUT=<json path>")
endif()
execute_process(COMMAND ${TOOL} --workload matmul --cores 4 --counters ${OUT}
                RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err
                TIMEOUT 120)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "lbp_prof exited '${Rc}', want 0\n${Out}${Err}")
endif()
file(READ ${OUT} Json)
string(JSON Banks LENGTH "${Json}" counters counters bank_reads)
if(NOT Banks EQUAL 4)
  message(FATAL_ERROR "want 4 banks, got ${Banks}")
endif()
string(JSON Reads GET "${Json}" counters counters bank_reads)
foreach(I RANGE 3)
  string(JSON N GET "${Json}" counters counters bank_reads ${I})
  if(N EQUAL 0)
    message(FATAL_ERROR "bank ${I} served no reads: bank_reads ${Reads}")
  endif()
endforeach()
