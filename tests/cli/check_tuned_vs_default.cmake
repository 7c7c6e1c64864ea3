# The Figure 7 story at 4 GB: the same production seed run with the
# default config and with the aggressively tuned one. Both reports must
# validate, and the tuned run must beat the default on runtime and spills.
include(${CMAKE_CURRENT_LIST_DIR}/run_helpers.cmake)

run(${CLI} --app=terasort --size-gb=4 --strategy=none --seed=78 --runs=1
    --report-out=report_default.json)
run(${CLI} --app=terasort --size-gb=4 --strategy=aggressive --seed=77
    --runs=1 --report-out=report_tuned.json)
run(${PYTHON} ${TOOLS}/mron_report.py report_default.json --check)
run(${PYTHON} ${TOOLS}/mron_report.py report_tuned.json --check)
run(${PYTHON} ${TOOLS}/mron_diff.py report_default.json report_tuned.json
    --check-improves exec_secs,spilled_records --blame)
