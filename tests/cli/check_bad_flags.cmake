# A driver handed a misspelled flag, a malformed number or conflicting
# fault flags must print usage and exit 2 before running anything: never
# warn and run with defaults, never read a following flag as a value.
function(expect_usage_error)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}, want 2")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "'${ARGN}' printed no usage:\n${err}")
  endif()
endfunction()

foreach(bin ${CLI} ${BENCH})
  expect_usage_error(${bin} --strateegy=aggressive)
  expect_usage_error(${bin} --jobs=abc)
  expect_usage_error(${bin} --jobs=2.5)
  expect_usage_error(${bin} --jobs=0)
  expect_usage_error(${bin} --report-out --jobs=abc)
  expect_usage_error(${bin} --fault-plan=${PLAN} --fault-spec=seed\ 7)
endforeach()
expect_usage_error(${CLI} --runs=2x)
expect_usage_error(${SCALEBENCH} --nodse=19,64)
expect_usage_error(${TIMELINE} --gb=abc)
expect_usage_error(${TIMELINE} --gbb=5)
