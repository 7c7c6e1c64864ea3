# The bench harness's --report-out: the exported run_report.json must be
# byte-identical at --jobs=1 and --jobs=2 and pass the schema validator.
foreach(jobs 1 2)
  execute_process(
    COMMAND ${BENCH} --jobs=${jobs} --report-out=bench_report_j${jobs}.json
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --jobs=${jobs} failed with ${rc}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          bench_report_j1.json bench_report_j2.json
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "bench run report differs between --jobs=1 and --jobs=2")
endif()

execute_process(
  COMMAND ${PYTHON} ${TOOLS}/mron_report.py bench_report_j1.json --check
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "mron_report.py --check failed with ${check_rc}")
endif()
