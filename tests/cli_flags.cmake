# Runs TOOL once per malformed or out-of-range numeric flag and expects
# the tool's usage text with exit status 2: a bad count must never wrap
# into a huge unsigned (a hang) or die later inside the runtime. Each
# case in BAD is FLAG=VALUE, appended to ARGS, a command line that is
# otherwise valid. GOOD, if given, is a command line with flags at their
# bounds, which the tool must accept and run: its stdout must match the
# regex GOOD_OUT.
#
#   cmake -DTOOL=path/to/tool -DBAD="--cores=0 --cores=65" \
#         [-DARGS="--workload phases"] \
#         [-DGOOD="--cores 64" -DGOOD_OUT="ran"] -P cli_flags.cmake
if(NOT TOOL OR NOT BAD)
  message(FATAL_ERROR "pass -DTOOL=<binary> -DBAD=<FLAG=VALUE ...>")
endif()
get_filename_component(Name "${TOOL}" NAME)
separate_arguments(Cases UNIX_COMMAND "${BAD}")
separate_arguments(Base UNIX_COMMAND "${ARGS}")

foreach(Case IN LISTS Cases)
  string(REPLACE "=" ";" Flag "${Case}")
  execute_process(COMMAND ${TOOL} ${Base} ${Flag}
                  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out
                  ERROR_VARIABLE Err TIMEOUT 10)
  if(NOT Rc EQUAL 2)
    message(FATAL_ERROR "${Name} ${Case}: exit '${Rc}', want 2\n${Err}")
  endif()
  if(NOT Err MATCHES "usage: ${Name}")
    message(FATAL_ERROR "${Name} ${Case}: no usage text\n${Err}")
  endif()
endforeach()

if(GOOD)
  if(NOT GOOD_OUT)
    message(FATAL_ERROR "GOOD needs -DGOOD_OUT=<regex>")
  endif()
  separate_arguments(Good UNIX_COMMAND "${GOOD}")
  execute_process(COMMAND ${TOOL} ${Good}
                  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out
                  ERROR_VARIABLE Err TIMEOUT 60)
  if(Rc EQUAL 2 OR NOT Rc MATCHES "^[0-9]+$" OR Err MATCHES "usage: "
     OR NOT Out MATCHES "${GOOD_OUT}")
    message(FATAL_ERROR "${Name} ${GOOD}: not run at the flag bounds "
                        "(exit '${Rc}', want stdout matching "
                        "'${GOOD_OUT}')\n${Err}")
  endif()
endif()
