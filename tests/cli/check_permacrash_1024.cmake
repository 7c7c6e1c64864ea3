# Storage recovery at acceptance scale: the permanent-crash plan on the
# 1,024-node preset. 128 GB puts ~3 block replicas on every node, so the
# crashed node is guaranteed to be hosting data worth recovering. Every
# block must be back at full replication before the run drains, and the
# report must be byte-identical at --jobs=1 and --jobs=4.
#
# The inline Python holds no semicolon: CMake would split the argument
# there.
include(${CMAKE_CURRENT_LIST_DIR}/run_helpers.cmake)

foreach(jobs 1 4)
  run(${CLI} --app=terasort --size-gb=128 --strategy=none --seed=78
      --runs=1 --jobs=${jobs} --cluster=nodes:1023 --speculative
      --fault-plan=${PLANS}/permacrash_terasort.plan
      --report-out=report_permacrash_1024_j${jobs}.json)
endforeach()
same(report_permacrash_1024_j1.json report_permacrash_1024_j4.json)
run(${PYTHON} ${TOOLS}/mron_report.py report_permacrash_1024_j1.json --check)
run(${PYTHON} -c "import json
dfs = json.load(open('report_permacrash_1024_j1.json'))['dfs']
assert dfs['rerepl.completed'] >= 1, dfs
assert dfs['under_replicated_final'] == 0, dfs
print('1,024-node recovery complete at t=%.1f'
      % dfs['rerepl.recovery_time'])
")
