# Failure-recovery acceptance (FAULTS.md) on the 19-node testbed. The
# canned plan crashes a node mid-shuffle, degrades two others and kills 2%
# of attempts; the run must still complete, re-execute the lost map
# outputs, win at least one speculative race, put the recovery on the
# critical path, stay byte-identical at any --jobs level, and the tuner
# must still beat the default config under fire. The permanent-crash plan
# must re-replicate every block the dead node hosted.
#
# The inline Python holds no semicolon: CMake would split the argument
# there.
include(${CMAKE_CURRENT_LIST_DIR}/run_helpers.cmake)

set(faulted --app=terasort --size-gb=4 --runs=1 --speculative
    --fault-plan=${PLANS}/faulted_terasort.plan)

# Default and tuned runs under the faulted plan.
run(${CLI} ${faulted} --strategy=none --seed=78
    --report-out=report_faulted_default.json)
run(${CLI} ${faulted} --strategy=aggressive --seed=77
    --report-out=report_faulted_tuned.json
    --audit-out=audit_faulted_tuned.jsonl)
run(${PYTHON} ${TOOLS}/mron_report.py report_faulted_default.json --check)
run(${PYTHON} ${TOOLS}/mron_report.py report_faulted_tuned.json --check)

# Recovery actually happened. A quiet pass would mean the plan no longer
# bites (calibration drift): demand the crash, the lost-output
# re-executions, and a won speculative race in the default run's report.
run(${PYTHON} -c "import json
doc = json.load(open('report_faulted_default.json'))
faults, totals = doc['faults'], doc['totals']
assert faults['crashes'] >= 1, faults
assert faults['lost_map_reexecutions'] >= 1, faults
assert totals['speculative_wins'] >= 1, totals
print('crashes', faults['crashes'],
      '| lost map re-executions', faults['lost_map_reexecutions'],
      '| speculative wins', totals['speculative_wins'])
")

# The critical path places the blame: the node-2 crash costs the default
# run critical-path time charged to retry_recovery, and the tuner's audit
# log records what was on the critical path when it decided.
run(${PYTHON} -c "import json
doc = json.load(open('report_faulted_default.json'))
blame = doc['critical_path']['blame_totals']
assert blame['retry_recovery'] > 0, blame
kinds = {s['from'] for j in doc['critical_path']['jobs']
         for s in j['segments']}
assert 'map_lost' in kinds or 'map_fail' in kinds, kinds
print('retry_recovery on the critical path:',
      round(blame['retry_recovery'], 2), 's')
")
run(${PYTHON} -c "import json
with_cp = [json.loads(line) for line in open('audit_faulted_tuned.jsonl')
           if '\"cp.' in line]
assert with_cp, 'no audit decision carries cp.* context'
print(len(with_cp), 'audit decisions carry critical-path context')
")

# The tuned run still beats the default under fire.
run(${PYTHON} ${TOOLS}/mron_diff.py report_faulted_default.json
    report_faulted_tuned.json --check-improves exec_secs --blame)

# Determinism: byte-identical reports at --jobs=1 and --jobs=4.
foreach(jobs 1 4)
  run(${CLI} --app=terasort --size-gb=4 --strategy=none --seed=78 --runs=3
      --jobs=${jobs} --speculative
      --fault-plan=${PLANS}/faulted_terasort.plan
      --report-out=report_faulted_j${jobs}.json)
endforeach()
same(report_faulted_j1.json report_faulted_j4.json)

# Storage recovery: node 2 dies for good (no restart=). The
# under-replication queue must restore every block it hosted to full
# replication before the run drains, visibly (copies started and
# completed, a nonzero peak), and the recovery traffic must not break
# report byte-identity across --jobs.
foreach(jobs 1 4)
  run(${CLI} --app=terasort --size-gb=4 --strategy=none --seed=78 --runs=1
      --jobs=${jobs} --speculative
      --fault-plan=${PLANS}/permacrash_terasort.plan
      --report-out=report_permacrash_j${jobs}.json)
endforeach()
same(report_permacrash_j1.json report_permacrash_j4.json)
run(${PYTHON} ${TOOLS}/mron_report.py report_permacrash_j1.json --check)
run(${PYTHON} -c "import json
dfs = json.load(open('report_permacrash_j1.json'))['dfs']
assert dfs['under_replicated_peak'] >= 1, dfs
assert dfs['rerepl.started'] >= 1, dfs
assert dfs['rerepl.completed'] >= 1, dfs
assert dfs['rerepl.bytes'] > 0, dfs
assert dfs['under_replicated_final'] == 0, dfs
print('re-replicated', int(dfs['rerepl.completed']), 'blocks,',
      int(dfs['rerepl.bytes']), 'bytes, under-replication back',
      'to 0 at t=%.1f' % dfs['rerepl.recovery_time'])
")
