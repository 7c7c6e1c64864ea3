# Run mron_cli with every export flag and validate the artifacts with a
# stock Python interpreter: the trace and metrics files must be one JSON
# document each, the audit log one JSON object per line. The metrics file
# carries scalars and histograms only; the run's timelines live in the run
# report's series block (SeriesStore, the one time-series store).
execute_process(
  COMMAND ${CLI} --app=terasort --size-gb=2 --strategy=conservative
          --metrics-out=check_metrics.json --trace-out=check_trace.json
          --audit-out=check_audit.jsonl --report-out=check_report.json
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE cli_rc
  OUTPUT_QUIET)
if(NOT cli_rc EQUAL 0)
  message(FATAL_ERROR "mron_cli failed with ${cli_rc}")
endif()

execute_process(
  COMMAND ${PYTHON} -c
"import json
json.load(open('check_trace.json'))
json.load(open('check_metrics.json'))
lines = [json.loads(l) for l in open('check_audit.jsonl')]
assert lines, 'audit log is empty'
assert all('kind' in l and 't' in l for l in lines)
trace = json.load(open('check_trace.json'))
events = trace['traceEvents']
assert sum(e['ph'] == 'B' for e in events) == sum(e['ph'] == 'E' for e in events)
metrics = json.load(open('check_metrics.json'))['metrics']
assert metrics, 'metrics file is empty'
hist = ('sum', 'p50', 'p95', 'p99', 'overflow_count', 'buckets')
for m in metrics:
    assert {'name', 'kind', 'value'} <= m.keys(), m
    assert 'series' not in m, m['name'] + ' still carries a series'
    if m['kind'] == 'histogram':
        assert all(k in m for k in hist), m
assert any(m['kind'] == 'histogram' for m in metrics), 'no histogram'
series = {s['name']: s['points']
          for s in json.load(open('check_report.json'))['series']['series']}
for r in ('cpu', 'disk', 'net'):
    name = 'cluster.node0.' + r + '_util'
    assert series.get(name), name + ' timeline missing from the run report'
"
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE py_rc)
if(NOT py_rc EQUAL 0)
  message(FATAL_ERROR "export validation failed with ${py_rc}")
endif()
