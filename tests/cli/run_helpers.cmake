# Shared by the CLI acceptance scripts: run(<command...>) executes in
# ${WORKDIR} and fails the test on a nonzero exit, and same(a b) fails it
# unless the two files are byte-identical.
function(run)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}:\n${out}${err}")
  endif()
  message(STATUS "${out}")
endfunction()

function(same a b)
  run(${CMAKE_COMMAND} -E compare_files ${a} ${b})
endfunction()
