# Runs lbp_fleet once per malformed or out-of-range numeric flag and
# expects the usage text with exit status 2: a bad count must never wrap
# into a huge unsigned (a hang) or die later inside the runtime.
#
#   cmake -DFLEET=path/to/lbp_fleet -P fleet_cli_flags.cmake
if(NOT FLEET)
  message(FATAL_ERROR "pass -DFLEET=<lbp_fleet binary>")
endif()

set(BadCases
  --runs=-1 --runs=0 --runs=1000001 --runs=abc
  --cores=0 --cores=-4 --cores=65
  --workers=0 --workers=-2 --workers=257
  --max-attempts=0 --max-attempts=-1 --max-attempts=101
  --deadline-cycles=0 --deadline-cycles=-5
  --drops=-1 --seed-base=-3 --inject-crash=-2)

foreach(Case IN LISTS BadCases)
  string(REPLACE "=" ";" Args "${Case}")
  execute_process(COMMAND ${FLEET} ${Args}
                  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out
                  ERROR_VARIABLE Err TIMEOUT 10)
  if(NOT Rc EQUAL 2)
    message(FATAL_ERROR "lbp_fleet ${Case}: exit '${Rc}', want 2\n${Err}")
  endif()
  if(NOT Err MATCHES "usage: lbp_fleet")
    message(FATAL_ERROR "lbp_fleet ${Case}: no usage text\n${Err}")
  endif()
endforeach()

# The same flags at their bounds are accepted.
execute_process(COMMAND ${FLEET} --workload phases --runs 1 --cores 1
                        --workers 1 --max-attempts 1 --deadline-cycles 1
                RESULT_VARIABLE Rc OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err TIMEOUT 60)
if(NOT Out MATCHES "\"runs\"")
  message(FATAL_ERROR "lbp_fleet at the flag bounds: exit '${Rc}', "
                      "no report\n${Err}")
endif()
