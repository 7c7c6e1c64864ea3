#!/usr/bin/env python3
"""Validate and render an mron run report (obs/report.h, mron.run_report/4).

    mron_report.py run_report.json                # write run_report.html
    mron_report.py run_report.json -o out.html
    mron_report.py run_report.json --check        # schema validation only
    mron_report.py host_profile.json --check      # host-profile validation
    mron_report.py host_profile.json --profile    # flame table to stdout

--check walks the schema (key sets, types, counter-rollup consistency,
series monotonicity, critical-path telescoping and blame rollups) and exits
non-zero with a list of violations; CI runs it against every exported
report. Histogram quantiles that hit the overflow bucket are flagged as
warnings (the p99 is a clamp, not a measurement). Rendering produces one
self-contained HTML file: run metadata, totals, per-node utilization
timelines, the map/reduce wave chart, the critical-path blame breakdown,
the tuner convergence curve, and the full metric and counter tables.
Stdlib only.

Host self-profiler exports (mron.host_profile/1, --profile-out) are
auto-detected by their schema string. --check validates the key sets, the
subsystem taxonomy, frame-tree invariants (self <= total, parents precede
children), and the coverage rule: per-subsystem host time must account for
at least 90% of the steady-phase wall — steady is exactly the event loop,
with post-drain work split into its own teardown phase (runs with under
10 ms of attributed dispatch time are exempt; timer noise dominates there).
--profile prints an indented flame-style table of the frame tree plus the
subsystem and top-self-time breakdowns.
"""

import argparse
import html
import json
import math
import signal
import sys

# /3 reports (no dfs block) are still accepted; /4 added the always-present
# storage block. Keys introduced by schemas newer than this tool are
# warnings, not errors, so old tooling degrades gracefully.
SCHEMAS = ("mron.run_report/3", "mron.run_report/4")
SCHEMA = SCHEMAS[-1]
TOP_KEYS = {"schema", "meta", "jobs", "totals", "faults", "critical_path",
            "metrics", "series", "audit"}
# Storage rollup (schema /4+): placement counts plus the re-replication
# pipeline tallies (dfs/rereplicator.h Stats).
DFS_KEYS = {"blocks_total", "replication", "under_replicated_final",
            "under_replicated_peak", "rerepl.bytes", "rerepl.started",
            "rerepl.completed", "rerepl.cancelled", "rerepl.recovery_time"}
JOB_KEYS = {"id", "name", "submit_time", "finish_time", "counters", "stats",
            "config"}
# The fixed blame taxonomy (obs/critical_path.h, enum order).
BLAME_KEYS = ["sched_wait", "map_compute", "spill_merge", "shuffle_net",
              "reduce_compute", "retry_recovery", "speculation"]
SEGMENT_KEYS = {"from", "to", "t0", "t1", "secs", "blame"}


PROFILE_SCHEMA = "mron.host_profile/1"
PROFILE_TOP_KEYS = {"schema", "meta", "clock", "phases", "subsystems",
                    "frames", "memory"}
# The fixed subsystem taxonomy (obs/host_profile.h, HostCat enum order).
SUBSYSTEM_KEYS = ["engine", "shared_server", "monitor", "dfs", "yarn",
                  "am_task", "tuner", "faults"]
PHASE_KEYS = ["setup", "steady", "teardown"]
FRAME_KEYS = {"path", "depth", "count", "total_ns", "self_ns", "max_ns"}
# Below this much *attributed dispatch time* the coverage rule says
# nothing: in a millisecond-scale run the post-loop export work (final
# flush, report serialization) is a visible fraction of the steady
# phase, and timer noise dominates the rest. Keying the exemption on
# the subsystem total rather than the steady wall keeps it stable on a
# loaded machine — contention stretches wall and dispatch time by the
# same factor, so a tiny run cannot drift into the gated regime. At
# real scale the event loop dominates and the rule bites.
COVERAGE_MIN_DISPATCH_NS = 1e7
COVERAGE_FRACTION = 0.9


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_number_map(errors, where, m):
    if not isinstance(m, dict):
        errors.append(f"{where}: expected an object")
        return
    for k, v in m.items():
        if not is_num(v):
            errors.append(f"{where}.{k}: expected a number, got {v!r}")


def check_blame_map(errors, where, m):
    """A blame map always carries the full taxonomy, zeros included."""
    if not isinstance(m, dict) or sorted(m.keys()) != sorted(BLAME_KEYS):
        errors.append(f"{where}: expected exactly the {len(BLAME_KEYS)} "
                      f"blame categories {BLAME_KEYS}")
        return
    for k, v in m.items():
        if not is_num(v) or v < -1e-9:
            errors.append(f"{where}.{k}: expected a non-negative number")


def check_critical_path(errors, cp, jobs):
    """Validate the critical_path block against the run's jobs.

    Each per-job path must be contiguous (segments telescope), its segment
    times must sum to the job's submit->finish span, its blame map must be
    the per-category segment rollup, and blame_totals must be the sum of
    the per-job maps.
    """
    if not isinstance(cp, dict) or cp.keys() != {"jobs", "blame_totals"}:
        errors.append('critical_path: expected {"jobs", "blame_totals"}')
        return
    job_span = {j["id"]: j["finish_time"] - j["submit_time"]
                for j in jobs
                if isinstance(j, dict) and isinstance(j.get("id"), int) and
                is_num(j.get("submit_time")) and is_num(j.get("finish_time"))}
    want_totals = {k: 0.0 for k in BLAME_KEYS}
    cp_jobs = cp["jobs"]
    if not isinstance(cp_jobs, list):
        errors.append("critical_path.jobs: expected an array")
        cp_jobs = []
    for i, cj in enumerate(cp_jobs):
        where = f"critical_path.jobs[{i}]"
        if not isinstance(cj, dict) or cj.keys() != {"id", "segments",
                                                     "blame"}:
            errors.append(f"{where}: bad key set")
            continue
        check_blame_map(errors, f"{where}.blame", cj["blame"])
        segs = cj["segments"]
        if not isinstance(segs, list):
            errors.append(f"{where}.segments: expected an array")
            continue
        seg_blame = {k: 0.0 for k in BLAME_KEYS}
        last_t1 = None
        total = 0.0
        ok = True
        for j, s in enumerate(segs):
            sw = f"{where}.segments[{j}]"
            if not isinstance(s, dict) or s.keys() != SEGMENT_KEYS:
                errors.append(f"{sw}: bad key set")
                ok = False
                break
            if not (is_num(s["t0"]) and is_num(s["t1"]) and
                    is_num(s["secs"])):
                errors.append(f"{sw}: t0/t1/secs must be numbers")
                ok = False
                break
            if s["blame"] not in BLAME_KEYS:
                errors.append(f"{sw}.blame: unknown category {s['blame']!r}")
                ok = False
                continue
            if s["t1"] < s["t0"]:
                errors.append(f"{sw}: t1 < t0 (segment runs backwards)")
            if not math.isclose(s["secs"], s["t1"] - s["t0"],
                                rel_tol=1e-9, abs_tol=1e-6):
                errors.append(f"{sw}.secs: {s['secs']} != t1 - t0")
            if last_t1 is not None and not math.isclose(
                    s["t0"], last_t1, rel_tol=1e-9, abs_tol=1e-6):
                errors.append(f"{sw}: path not contiguous "
                              f"(t0 {s['t0']} != previous t1 {last_t1})")
            last_t1 = s["t1"]
            seg_blame[s["blame"]] += s["secs"]
            total += s["secs"]
        if ok and isinstance(cj["blame"], dict):
            for k in BLAME_KEYS:
                got = cj["blame"].get(k)
                if is_num(got):
                    if not math.isclose(got, seg_blame[k],
                                        rel_tol=1e-9, abs_tol=1e-6):
                        errors.append(f"{where}.blame.{k}: {got} != "
                                      f"segment sum {seg_blame[k]}")
                    want_totals[k] += got
        span = job_span.get(cj.get("id"))
        if ok and segs and span is not None and not math.isclose(
                total, span, rel_tol=1e-9, abs_tol=1e-6):
            errors.append(f"{where}: segment secs sum {total} != "
                          f"job submit->finish span {span}")
    bt = cp.get("blame_totals")
    check_blame_map(errors, "critical_path.blame_totals", bt)
    if isinstance(bt, dict):
        for k in BLAME_KEYS:
            got = bt.get(k)
            if is_num(got) and not math.isclose(
                    got, want_totals[k], rel_tol=1e-9, abs_tol=1e-6):
                errors.append(f"critical_path.blame_totals.{k}: {got} != "
                              f"per-job sum {want_totals[k]}")


def validate(report, warnings=None):
    """Return a list of schema violations (empty = valid).

    Non-fatal findings (unknown future top-level blocks) are appended to
    `warnings` when a list is given.
    """
    errors = []
    if warnings is None:
        warnings = []
    if not isinstance(report, dict):
        return ["top level: expected an object"]
    schema = report.get("schema")
    if schema not in SCHEMAS:
        errors.append(f"schema: expected one of {list(SCHEMAS)}, got "
                      f"{schema!r}")
    # /4 made the storage block mandatory; a /3 report never carries it.
    want = TOP_KEYS | ({"dfs"} if schema != SCHEMAS[0] else set())
    missing = want - report.keys()
    extra = report.keys() - want - {"dfs"}
    if missing:
        errors.append(f"missing top-level keys: {sorted(missing)}")
    if extra:
        # A newer writer may add blocks this tool predates. Parse what we
        # know, surface the rest — do not fail CI over forward progress.
        warnings.append(f"unknown top-level keys (newer schema?): "
                        f"{sorted(extra)}")
    if schema == SCHEMAS[0] and "dfs" in report:
        errors.append("dfs: present in a /3 report (bump the schema)")

    meta = report.get("meta", {})
    if not isinstance(meta, dict) or any(
            not isinstance(v, str) for v in meta.values()):
        errors.append("meta: expected an object of strings")

    jobs = report.get("jobs", [])
    if not isinstance(jobs, list):
        errors.append("jobs: expected an array")
        jobs = []
    rolled = {}
    for i, job in enumerate(jobs):
        where = f"jobs[{i}]"
        if not isinstance(job, dict):
            errors.append(f"{where}: expected an object")
            continue
        if job.keys() != JOB_KEYS:
            errors.append(f"{where}: key set {sorted(job.keys())} != "
                          f"{sorted(JOB_KEYS)}")
            continue
        if not isinstance(job["id"], int) or isinstance(job["id"], bool):
            errors.append(f"{where}.id: expected an integer")
        if not isinstance(job["name"], str):
            errors.append(f"{where}.name: expected a string")
        for k in ("submit_time", "finish_time"):
            if not is_num(job[k]):
                errors.append(f"{where}.{k}: expected a number")
        if not isinstance(job["counters"], dict):
            errors.append(f"{where}.counters: expected an object")
        else:
            for phase, counters in job["counters"].items():
                check_number_map(errors, f"{where}.counters.{phase}", counters)
                if isinstance(counters, dict):
                    for k, v in counters.items():
                        if is_num(v):
                            rolled[f"{phase}.{k}"] = \
                                rolled.get(f"{phase}.{k}", 0.0) + v
        check_number_map(errors, f"{where}.stats", job["stats"])
        check_number_map(errors, f"{where}.config", job["config"])

    totals = report.get("totals", {})
    check_number_map(errors, "totals", totals)
    if isinstance(totals, dict):
        if totals.get("jobs") != len(jobs):
            errors.append(f"totals.jobs: {totals.get('jobs')} != "
                          f"{len(jobs)} jobs present")
        # The job->run rollup must be the sum of the per-job rollups.
        for key, want in rolled.items():
            got = totals.get(key)
            if got is None:
                errors.append(f"totals.{key}: missing")
            elif not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6):
                errors.append(f"totals.{key}: {got} != job sum {want}")

    # The faults block is empty on fault-free runs; on faulted runs the
    # recovery tallies must agree with the per-job stats rollup.
    faults = report.get("faults", {})
    check_number_map(errors, "faults", faults)
    if isinstance(faults, dict) and faults:
        for fkey, jkey in (("injected_task_failures", "injected_failures"),
                           ("fetch_failures", "fetch_failures"),
                           ("lost_map_reexecutions", "lost_maps_reexecuted")):
            if fkey not in faults:
                errors.append(f"faults.{fkey}: missing")
                continue
            want = sum(j.get("stats", {}).get(jkey, 0.0) for j in jobs
                       if isinstance(j, dict))
            if not math.isclose(faults[fkey], want,
                                rel_tol=1e-9, abs_tol=1e-6):
                errors.append(f"faults.{fkey}: {faults[fkey]} != "
                              f"job-stats sum {want}")

    # The dfs block (schema /4+): numeric, carries the full key set, and
    # its internal accounting must be self-consistent.
    dfs = report.get("dfs")
    if dfs is not None:
        check_number_map(errors, "dfs", dfs)
        if isinstance(dfs, dict):
            dmissing = DFS_KEYS - dfs.keys()
            dextra = dfs.keys() - DFS_KEYS
            if dmissing:
                errors.append(f"dfs: missing keys {sorted(dmissing)}")
            if dextra:
                warnings.append(f"dfs: unknown keys {sorted(dextra)}")
            for k in DFS_KEYS & dfs.keys():
                if is_num(dfs[k]) and dfs[k] < 0:
                    errors.append(f"dfs.{k}: expected a non-negative number")
            ok = all(is_num(dfs.get(k)) for k in DFS_KEYS)
            if ok and dfs["under_replicated_final"] > dfs["blocks_total"]:
                errors.append("dfs.under_replicated_final: exceeds "
                              "blocks_total")
            if ok and dfs["under_replicated_peak"] < \
                    dfs["under_replicated_final"]:
                errors.append("dfs.under_replicated_peak: below "
                              "under_replicated_final")
            if ok and dfs["rerepl.completed"] + dfs["rerepl.cancelled"] > \
                    dfs["rerepl.started"]:
                errors.append("dfs: rerepl.completed + rerepl.cancelled "
                              "exceed rerepl.started")
            if ok and dfs["rerepl.bytes"] > 0 and dfs["rerepl.started"] == 0:
                errors.append("dfs.rerepl.bytes: nonzero with zero streams "
                              "started")

    check_critical_path(errors, report.get("critical_path", {}), jobs)

    metrics = report.get("metrics", {})
    check_number_map(errors, "metrics", metrics)
    if isinstance(metrics, dict):
        # A clamped p99 must come with the overflow samples that caused it.
        for name, v in metrics.items():
            if name.endswith(".p99_clamped") and v:
                base = name[:-len(".p99_clamped")]
                if not metrics.get(base + ".overflow_count", 0):
                    errors.append(f"metrics.{name}: set without "
                                  f"{base}.overflow_count > 0")

    series = report.get("series", {})
    if not isinstance(series, dict) or \
            not isinstance(series.get("series"), list):
        errors.append('series: expected {"series": [...]}')
    else:
        for i, s in enumerate(series["series"]):
            where = f"series[{i}]"
            if not isinstance(s, dict) or \
                    s.keys() != {"name", "stride", "offered", "points"}:
                errors.append(f"{where}: bad key set")
                continue
            if not isinstance(s["name"], str):
                errors.append(f"{where}.name: expected a string")
            if not isinstance(s["stride"], int) or s["stride"] < 1:
                errors.append(f"{where}.stride: expected a positive integer")
            if not isinstance(s["offered"], int) or s["offered"] < 0:
                errors.append(f"{where}.offered: expected an integer >= 0")
            pts = s["points"]
            if not isinstance(pts, list):
                errors.append(f"{where}.points: expected an array")
                continue
            if len(pts) > s["offered"]:
                errors.append(f"{where}: {len(pts)} points from only "
                              f"{s['offered']} offers")
            last_t = -math.inf
            for j, p in enumerate(pts):
                if (not isinstance(p, list) or len(p) != 2 or
                        not is_num(p[0]) or not is_num(p[1])):
                    errors.append(f"{where}.points[{j}]: expected [t, v]")
                    break
                if p[0] < last_t:
                    errors.append(f"{where}.points[{j}]: time went backwards")
                    break
                last_t = p[0]

    audit = report.get("audit", {})
    if (not isinstance(audit, dict) or audit.keys() != {"events"} or
            not isinstance(audit.get("events"), int) or
            audit["events"] < 0):
        errors.append('audit: expected {"events": <non-negative integer>}')
    return errors


# --- host self-profiler exports (mron.host_profile/1) -----------------------


def validate_profile(doc):
    """Return a list of schema violations for a host_profile.json."""
    errors = []
    if not isinstance(doc, dict):
        return ["top level: expected an object"]
    if doc.get("schema") != PROFILE_SCHEMA:
        errors.append(f"schema: expected {PROFILE_SCHEMA!r}, got "
                      f"{doc.get('schema')!r}")
    missing = PROFILE_TOP_KEYS - doc.keys()
    extra = doc.keys() - PROFILE_TOP_KEYS
    if missing:
        errors.append(f"missing top-level keys: {sorted(missing)}")
    if extra:
        errors.append(f"unknown top-level keys: {sorted(extra)}")

    meta = doc.get("meta", {})
    if not isinstance(meta, dict) or any(
            not isinstance(v, str) for v in meta.values()):
        errors.append("meta: expected an object of strings")

    clock = doc.get("clock", {})
    if not isinstance(clock, dict) or \
            clock.keys() != {"source", "ns_per_tick", "threads"}:
        errors.append('clock: expected {"source", "ns_per_tick", "threads"}')
    else:
        if clock["source"] not in ("rdtsc", "steady_clock"):
            errors.append(f"clock.source: unknown source "
                          f"{clock['source']!r}")
        if not is_num(clock["ns_per_tick"]) or clock["ns_per_tick"] <= 0:
            errors.append("clock.ns_per_tick: expected a positive number")
        if not isinstance(clock["threads"], int) or clock["threads"] < 1:
            errors.append("clock.threads: expected a positive integer")

    phases = doc.get("phases", {})
    if not isinstance(phases, dict) or \
            sorted(phases.keys()) != sorted(PHASE_KEYS):
        errors.append(f"phases: expected exactly {PHASE_KEYS}")
        phases = {}
    for name, p in phases.items():
        where = f"phases.{name}"
        if not isinstance(p, dict) or p.keys() != {"wall_ns", "rss_bytes"}:
            errors.append(f'{where}: expected {{"wall_ns", "rss_bytes"}}')
            continue
        for k in ("wall_ns", "rss_bytes"):
            if not is_num(p[k]) or p[k] < 0:
                errors.append(f"{where}.{k}: expected a non-negative number")

    subsystems = doc.get("subsystems", {})
    sub_total_ns = 0.0
    if not isinstance(subsystems, dict) or \
            sorted(subsystems.keys()) != sorted(SUBSYSTEM_KEYS):
        errors.append(f"subsystems: expected exactly the "
                      f"{len(SUBSYSTEM_KEYS)} categories {SUBSYSTEM_KEYS}")
        subsystems = {}
    for name, s in subsystems.items():
        where = f"subsystems.{name}"
        if not isinstance(s, dict) or \
                s.keys() != {"events", "total_ns", "max_ns"}:
            errors.append(f'{where}: expected '
                          f'{{"events", "total_ns", "max_ns"}}')
            continue
        if not isinstance(s["events"], int) or s["events"] < 0:
            errors.append(f"{where}.events: expected an integer >= 0")
        for k in ("total_ns", "max_ns"):
            if not is_num(s[k]) or s[k] < 0:
                errors.append(f"{where}.{k}: expected a non-negative number")
        if is_num(s.get("total_ns")) and is_num(s.get("max_ns")):
            if s["max_ns"] > s["total_ns"] + 1e-6:
                errors.append(f"{where}: max_ns {s['max_ns']} > total_ns "
                              f"{s['total_ns']}")
            sub_total_ns += s["total_ns"]
        if isinstance(s.get("events"), int) and s["events"] == 0 and \
                is_num(s.get("total_ns")) and s["total_ns"] > 0:
            errors.append(f"{where}: nonzero total_ns with zero events")

    frames = doc.get("frames", [])
    if not isinstance(frames, list):
        errors.append("frames: expected an array")
        frames = []
    seen_paths = set()
    for i, fr in enumerate(frames):
        where = f"frames[{i}]"
        if not isinstance(fr, dict) or fr.keys() != FRAME_KEYS:
            errors.append(f"{where}: bad key set")
            continue
        if not isinstance(fr["path"], str) or not fr["path"]:
            errors.append(f"{where}.path: expected a non-empty string")
            continue
        if fr["path"] in seen_paths:
            errors.append(f"{where}.path: duplicate path {fr['path']!r}")
        if not isinstance(fr["depth"], int) or \
                fr["depth"] != fr["path"].count("/"):
            errors.append(f"{where}.depth: {fr['depth']} != path depth "
                          f"{fr['path'].count('/')}")
        if not isinstance(fr["count"], int) or fr["count"] < 0:
            errors.append(f"{where}.count: expected an integer >= 0")
        for k in ("total_ns", "self_ns", "max_ns"):
            if not is_num(fr[k]) or fr[k] < 0:
                errors.append(f"{where}.{k}: expected a non-negative number")
        if is_num(fr.get("self_ns")) and is_num(fr.get("total_ns")) and \
                fr["self_ns"] > fr["total_ns"] + 1e-6:
            errors.append(f"{where}: self_ns {fr['self_ns']} > total_ns "
                          f"{fr['total_ns']}")
        # The std::map export order guarantees each parent precedes its
        # children, which is what makes the indented rendering one pass.
        if "/" in fr["path"]:
            parent = fr["path"].rsplit("/", 1)[0]
            if parent not in seen_paths:
                errors.append(f"{where}: parent path {parent!r} does not "
                              f"precede it")
        seen_paths.add(fr["path"])

    memory = doc.get("memory", {})
    check_number_map(errors, "memory", memory)
    if isinstance(memory, dict):
        for k in ("rss_peak_bytes", "rss_current_bytes"):
            if k not in memory:
                errors.append(f"memory.{k}: missing")
        peak = memory.get("rss_peak_bytes")
        current = memory.get("rss_current_bytes")
        if is_num(peak) and is_num(current) and peak < current:
            errors.append(f"memory.rss_peak_bytes {peak} < "
                          f"rss_current_bytes {current}")

    # The coverage rule: per-event attribution bills every inter-pop delta
    # to a subsystem, so subsystem time must nearly tile the steady wall.
    steady = phases.get("steady", {})
    steady_ns = steady.get("wall_ns") if isinstance(steady, dict) else None
    if is_num(steady_ns) and sub_total_ns > COVERAGE_MIN_DISPATCH_NS and \
            not any(e.startswith("subsystems") for e in errors):
        if sub_total_ns < COVERAGE_FRACTION * steady_ns:
            errors.append(
                f"coverage: subsystem total {sub_total_ns:.0f} ns < "
                f"{COVERAGE_FRACTION:.0%} of steady wall {steady_ns:.0f} ns")
    return errors


def fmt_ns(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:.2f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f} us"
    return f"{ns:.0f} ns"


def render_profile(doc, top_n=10):
    """Flame-style text rendering of a host profile (stdout)."""
    out = []
    meta = doc["meta"]
    clock = doc["clock"]
    phases = doc["phases"]
    steady_ns = phases["steady"]["wall_ns"]
    total_ns = sum(phases[p]["wall_ns"] for p in PHASE_KEYS)
    meta_line = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    out.append(f"host profile ({clock['source']}, "
               f"{clock['threads']} thread(s))"
               + (f" — {meta_line}" if meta_line else ""))
    for p in PHASE_KEYS:
        out.append(f"  {p:<9}{fmt_ns(phases[p]['wall_ns']):>12}   "
                   f"rss {phases[p]['rss_bytes'] / (1 << 20):,.0f} MiB")

    out.append("")
    out.append("subsystems (steady-state event dispatch):")
    out.append(f"  {'subsystem':<14} {'events':>12} {'total':>12} "
               f"{'% steady':>9} {'ns/event':>9} {'max run':>12}")
    subs = doc["subsystems"]
    for name in sorted(SUBSYSTEM_KEYS,
                       key=lambda n: -subs[n]["total_ns"]):
        s = subs[name]
        if s["events"] == 0:
            continue
        pct = 100.0 * s["total_ns"] / steady_ns if steady_ns > 0 else 0.0
        per = s["total_ns"] / s["events"]
        out.append(f"  {name:<14} {s['events']:>12,} "
                   f"{fmt_ns(s['total_ns']):>12} {pct:>8.1f}% "
                   f"{per:>9.0f} {fmt_ns(s['max_ns']):>12}")

    frames = doc["frames"]
    if frames:
        out.append("")
        out.append("frames (host wall, merged across threads):")
        out.append(f"  {'frame':<44} {'count':>10} {'total':>12} "
                   f"{'self':>12} {'% run':>7}")
        for fr in frames:
            name = "  " * fr["depth"] + fr["path"].rsplit("/", 1)[-1]
            pct = 100.0 * fr["total_ns"] / total_ns if total_ns > 0 else 0.0
            out.append(f"  {name:<44} {fr['count']:>10,} "
                       f"{fmt_ns(fr['total_ns']):>12} "
                       f"{fmt_ns(fr['self_ns']):>12} {pct:>6.1f}%")

        top = sorted(frames, key=lambda f: -f["self_ns"])[:top_n]
        out.append("")
        out.append(f"top {len(top)} by self time:")
        for fr in top:
            out.append(f"  {fmt_ns(fr['self_ns']):>12}  {fr['path']}")

    mem = doc["memory"]
    out.append("")
    out.append("memory:")
    for k in sorted(mem):
        out.append(f"  {k:<28} {mem[k] / (1 << 20):>10,.2f} MiB")
    return "\n".join(out)


# --- HTML rendering ---------------------------------------------------------
# Colors, chrome, and mark specs follow the dataviz reference palette; the
# three categorical slots used here validate all-pairs in both modes. The
# light-mode aqua slot sits below 3:1 on the surface, so every chart ships a
# legend + direct labels and the tables below are the relief view.

CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: #f9f9f7; color: #0b0b0b;
}
.viz-root {
  --surface-1: #fcfcfb; --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  body { background: #0d0d0d; color: #ffffff; }
  .viz-root {
    --surface-1: #1a1a19; --text-primary: #ffffff;
    --text-secondary: #c3c2b7; --muted: #898781; --grid: #2c2c2a;
    --axis: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: var(--muted, #898781); font-size: 13px; margin-bottom: 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 14px; min-width: 120px;
}
.tile .v { font-size: 22px; }
.tile .k { color: var(--text-secondary); font-size: 12px; margin-top: 2px; }
.chart {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px; margin: 12px 0; position: relative;
}
.chart svg { display: block; width: 100%; height: auto; }
.legend { display: flex; gap: 16px; font-size: 12px;
          color: var(--text-secondary); margin: 0 0 6px 8px; }
.legend .chip { display: inline-block; width: 10px; height: 10px;
                border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
.axis-label { fill: var(--muted); font-size: 11px;
              font-variant-numeric: tabular-nums; }
.series-label { fill: var(--text-secondary); font-size: 11px; }
.gridline { stroke: var(--grid); stroke-width: 1; }
.baseline { stroke: var(--axis); stroke-width: 1; }
.line { fill: none; stroke-width: 2; stroke-linejoin: round; }
.crosshair { stroke: var(--axis); stroke-width: 1; visibility: hidden; }
.tooltip {
  position: absolute; pointer-events: none; visibility: hidden;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; padding: 6px 9px; font-size: 12px;
  color: var(--text-primary); box-shadow: 0 2px 8px rgba(0,0,0,0.12);
  white-space: nowrap; z-index: 10;
}
.tooltip .t { color: var(--text-secondary); margin-bottom: 2px; }
table { border-collapse: collapse; font-size: 13px;
        background: var(--surface-1); border: 1px solid var(--border);
        border-radius: 8px; }
th, td { text-align: left; padding: 4px 12px;
         border-bottom: 1px solid var(--grid); }
td.n { text-align: right; font-variant-numeric: tabular-nums; }
th { color: var(--text-secondary); font-weight: 600; }
details summary { cursor: pointer; color: var(--text-secondary);
                  font-size: 14px; margin: 20px 0 8px; }
"""

JS = """
document.querySelectorAll('.chart[data-chart]').forEach(function (box) {
  var data = JSON.parse(box.querySelector('script').textContent);
  var svg = box.querySelector('svg');
  var cross = box.querySelector('.crosshair');
  var tip = box.querySelector('.tooltip');
  var g = data.geom;
  box.addEventListener('mousemove', function (ev) {
    var pt = svg.createSVGPoint();
    pt.x = ev.clientX; pt.y = ev.clientY;
    var p = pt.matrixTransform(svg.getScreenCTM().inverse());
    if (p.x < g.x0 || p.x > g.x1) { leave(); return; }
    var t = g.tmin + (p.x - g.x0) / (g.x1 - g.x0) * (g.tmax - g.tmin);
    var rows = ['<div class="t">t = ' + t.toFixed(1) + ' s</div>'];
    data.series.forEach(function (s) {
      var v = null;  // value at the greatest sample time <= t
      for (var i = 0; i < s.points.length; i++) {
        if (s.points[i][0] > t) break;
        v = s.points[i][1];
      }
      if (v !== null) {
        rows.push('<span class="chip" style="background:var(' + s.color +
                  ')"></span>' + s.label + ': ' + v.toPrecision(4) + '<br>');
      }
    });
    var x = g.x0 + (t - g.tmin) / (g.tmax - g.tmin || 1) * (g.x1 - g.x0);
    cross.setAttribute('x1', x); cross.setAttribute('x2', x);
    cross.style.visibility = 'visible';
    tip.innerHTML = rows.join('');
    tip.style.visibility = 'visible';
    var bx = box.getBoundingClientRect();
    var left = ev.clientX - bx.left + 14;
    if (left + tip.offsetWidth > bx.width - 8)
      left = ev.clientX - bx.left - tip.offsetWidth - 14;
    tip.style.left = left + 'px';
    tip.style.top = (ev.clientY - bx.top + 12) + 'px';
  });
  function leave() {
    cross.style.visibility = 'hidden';
    tip.style.visibility = 'hidden';
  }
  box.addEventListener('mouseleave', leave);
});
"""

COLORS = ["--series-1", "--series-2", "--series-3"]


def nice_ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1, 2, 2.5, 5, 10) if s * mag >= raw)
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + step * 1e-9:
        ticks.append(round(t, 10))
        t += step
    return ticks


def fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e15 or 0 < abs(v) < 1e-3:
        return f"{v:.2e}"
    if abs(v) >= 1000 or v == int(v):
        return f"{v:,.0f}"
    return f"{v:.3g}"


def line_chart(chart_id, series, y_label, y_max=None):
    """Render one hoverable SVG line chart.

    `series` is a list of (label, color_var, [(t, v), ...]); at most three
    series per chart (the validated all-pairs palette cap).
    """
    series = [s for s in series if s[2]]
    if not series:
        return ""
    width, height = 860, 240
    x0, x1, y0, y1 = 52, width - 96, height - 26, 12
    tmax = max(p[0] for _, _, pts in series for p in pts) or 1.0
    vmax = y_max if y_max is not None else \
        max(p[1] for _, _, pts in series for p in pts)
    vmax = vmax * 1.05 if vmax > 0 else 1.0

    def sx(t):
        return x0 + t / tmax * (x1 - x0)

    def sy(v):
        return y0 - v / vmax * (y0 - y1)

    parts = [f'<svg viewBox="0 0 {width} {height}" '
             f'preserveAspectRatio="xMidYMid meet" role="img" '
             f'aria-label="{html.escape(y_label)}">']
    for v in nice_ticks(0, vmax):
        y = sy(v)
        parts.append(f'<line class="gridline" x1="{x0}" y1="{y:.1f}" '
                     f'x2="{x1}" y2="{y:.1f}"/>')
        parts.append(f'<text class="axis-label" x="{x0 - 6}" y="{y + 3:.1f}" '
                     f'text-anchor="end">{fmt(v)}</text>')
    for t in nice_ticks(0, tmax):
        parts.append(f'<text class="axis-label" x="{sx(t):.1f}" '
                     f'y="{y0 + 15}" text-anchor="middle">{fmt(t)}</text>')
    parts.append(f'<line class="baseline" x1="{x0}" y1="{y0}" '
                 f'x2="{x1}" y2="{y0}"/>')
    for label, color, pts in series:
        d = " ".join(f"{'M' if i == 0 else 'L'}{sx(t):.1f},{sy(v):.1f}"
                     for i, (t, v) in enumerate(pts))
        parts.append(f'<path class="line" style="stroke:var({color})" '
                     f'd="{d}"/>')
        lt, lv = pts[-1]
        parts.append(f'<text class="series-label" x="{sx(lt) + 5:.1f}" '
                     f'y="{sy(lv) + 3:.1f}">{html.escape(label)}</text>')
    parts.append(f'<line class="crosshair" x1="0" x2="0" '
                 f'y1="{y1}" y2="{y0}"/>')
    parts.append("</svg>")

    legend = "".join(
        f'<span><span class="chip" style="background:var({color})"></span>'
        f'{html.escape(label)}</span>' for label, color, _ in series)
    payload = json.dumps({
        "geom": {"x0": x0, "x1": x1, "tmin": 0, "tmax": tmax},
        "series": [{"label": l, "color": c, "points": p}
                   for l, c, p in series],
    })
    return (f'<div class="chart" data-chart="{chart_id}">'
            f'<div class="legend">{legend}</div>{"".join(parts)}'
            f'<div class="tooltip"></div>'
            f'<script type="application/json">{payload}</script></div>')


def series_map(report):
    return {s["name"]: s["points"] for s in report["series"]["series"]}


def mean_series(named, names):
    """Pointwise mean of same-clock series (per-node utilization)."""
    rows = [named[n] for n in names if n in named and named[n]]
    if not rows:
        return []
    length = min(len(r) for r in rows)
    return [[rows[0][i][0],
             sum(r[i][1] for r in rows) / len(rows)] for i in range(length)]


def utilization_chart(named):
    nodes = sorted({n.split(".")[1] for n in named
                    if n.startswith("cluster.node")})
    series = []
    for label, color, kind in (("cpu", "--series-1", "cpu_util"),
                               ("disk", "--series-2", "disk_util"),
                               ("network", "--series-3", "net_util")):
        pts = mean_series(named,
                          [f"cluster.{n}.{kind}" for n in nodes])
        series.append((label, color, pts))
    return line_chart("util", series, "cluster mean utilization", y_max=1.0)


def wave_chart(named, jobs):
    charts = []
    for job in jobs:
        prefix = f"job{job['id']}."
        series = [
            ("maps running", "--series-1",
             named.get(prefix + "maps_running", [])),
            ("reduces running", "--series-2",
             named.get(prefix + "reduces_running", [])),
        ]
        c = line_chart(f"wave{job['id']}", series,
                       f"{job['name']} running tasks")
        if c:
            charts.append(f"<h2>Waves — {html.escape(job['name'])} "
                          f"(job {job['id']})</h2>" + c)
    return "".join(charts)


def convergence_chart(named):
    charts = []
    for name in sorted(named):
        if not (name.startswith("tuner.job") and
                name.endswith(".best_cost")):
            continue
        side = "map" if ".map." in name else "reduce"
        jobpart = name.split(".")[1]
        charts.append((jobpart, side, named[name]))
    if not charts:
        return ""
    out = ["<h2>Tuner convergence</h2>"]
    by_job = {}
    for jobpart, side, pts in charts:
        by_job.setdefault(jobpart, []).append((side, pts))
    for jobpart, sides in sorted(by_job.items()):
        series = [(side, COLORS[i % len(COLORS)], pts)
                  for i, (side, pts) in enumerate(sides)]
        out.append(line_chart(f"conv{jobpart}", series,
                              f"{jobpart} best predicted cost"))
    return "".join(out)


def blame_chart(cp):
    """Horizontal bar chart of run-level critical-path blame totals."""
    totals = cp.get("blame_totals", {})
    items = [(k, totals.get(k, 0.0)) for k in BLAME_KEYS]
    vmax = max((v for _, v in items), default=0.0)
    if vmax <= 0:
        return ""
    width, bar_h, gap, x0 = 860, 22, 8, 150
    height = len(items) * (bar_h + gap) + 16
    parts = [f'<svg viewBox="0 0 {width} {height}" '
             f'preserveAspectRatio="xMidYMid meet" role="img" '
             f'aria-label="critical-path blame breakdown">']
    for i, (k, v) in enumerate(items):
        y = 8 + i * (bar_h + gap)
        w = (width - x0 - 130) * (v / vmax)
        color = COLORS[i % len(COLORS)]
        parts.append(f'<text class="axis-label" x="{x0 - 8}" '
                     f'y="{y + bar_h / 2 + 4:.1f}" text-anchor="end">'
                     f'{html.escape(k)}</text>')
        parts.append(f'<rect x="{x0}" y="{y}" width="{max(w, 1):.1f}" '
                     f'height="{bar_h}" rx="3" '
                     f'style="fill:var({color})"/>')
        parts.append(f'<text class="series-label" '
                     f'x="{x0 + max(w, 1) + 6:.1f}" '
                     f'y="{y + bar_h / 2 + 4:.1f}">{fmt(v)} s</text>')
    parts.append("</svg>")
    return f'<div class="chart">{"".join(parts)}</div>'


def segment_tables(cp):
    """Per-job critical-path segment listings (collapsed by default)."""
    out = []
    for cj in cp.get("jobs", []):
        rows = "".join(
            f'<tr><td>{html.escape(s["from"])}</td>'
            f'<td>{html.escape(s["to"])}</td>'
            f'<td class="n">{s["t0"]:.3f}</td>'
            f'<td class="n">{s["t1"]:.3f}</td>'
            f'<td class="n">{s["secs"]:.3f}</td>'
            f'<td>{html.escape(s["blame"])}</td></tr>'
            for s in cj["segments"])
        head = "".join(f"<th>{h}</th>"
                       for h in ("from", "to", "t0", "t1", "secs", "blame"))
        out.append(f'<details><summary>Job {cj["id"]} critical path '
                   f'({len(cj["segments"])} segments)</summary>'
                   f"<table><tr>{head}</tr>{rows}</table></details>")
    return "".join(out)


def number_table(m, headers):
    rows = "".join(f"<tr><td>{html.escape(k)}</td>"
                   f'<td class="n">{fmt(v)}</td></tr>'
                   for k, v in sorted(m.items()))
    head = "".join(f"<th>{h}</th>" for h in headers)
    return f"<table><tr>{head}</tr>{rows}</table>"


def render(report):
    meta = report["meta"]
    named = series_map(report)
    totals = report["totals"]
    title = " · ".join(filter(None, [meta.get("app") or meta.get("benchmark"),
                                     meta.get("strategy"),
                                     f"seed {meta.get('seed', '?')}"]))
    tiles = []
    for key, label in (("exec_secs", "exec (s)"), ("jobs", "jobs"),
                       ("spilled_records", "spilled records"),
                       ("map.map_output_records", "map output records"),
                       ("failed_attempts", "failed attempts")):
        if key in totals:
            tiles.append(f'<div class="tile"><div class="v">'
                         f'{fmt(totals[key])}</div>'
                         f'<div class="k">{label}</div></div>')
    meta_line = " · ".join(f"{html.escape(k)}={html.escape(v)}"
                           for k, v in meta.items())

    body = [
        f"<h1>mron run report — {html.escape(title)}</h1>",
        f'<div class="sub">{meta_line} · audit events: '
        f'{report["audit"]["events"]}</div>',
        f'<div class="tiles">{"".join(tiles)}</div>',
        "<h2>Cluster utilization (mean across nodes)</h2>",
        utilization_chart(named),
        wave_chart(named, report["jobs"]),
    ]
    cp = report.get("critical_path", {})
    blame = blame_chart(cp)
    if blame:
        body.append("<h2>Critical path — where the time went</h2>")
        body.append(blame)
        body.append(segment_tables(cp))
    body += [
        convergence_chart(named),
        "<details open><summary>Run totals</summary>",
        number_table(totals, ("counter", "value")), "</details>",
    ]
    if report.get("dfs"):
        body.append("<details open><summary>Storage (placement + "
                    "re-replication)</summary>")
        body.append(number_table(report["dfs"], ("stat", "value")))
        body.append("</details>")
    for job in report["jobs"]:
        flat = {f"{phase}.{k}": v
                for phase, counters in job["counters"].items()
                for k, v in counters.items()}
        flat.update(job["stats"])
        body.append(f'<details><summary>Job {job["id"]} — '
                    f'{html.escape(job["name"])} counters</summary>')
        body.append(number_table(flat, ("counter", "value")))
        body.append("</details>")
        body.append(f'<details><summary>Job {job["id"]} configuration'
                    f"</summary>")
        body.append(number_table(job["config"], ("parameter", "value")))
        body.append("</details>")
    if report["metrics"]:
        body.append("<details><summary>All metrics</summary>")
        body.append(number_table(report["metrics"], ("metric", "value")))
        body.append("</details>")

    return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>mron run report</title><style>{CSS}</style></head>"
            f"<body><div class='viz-root'>{''.join(body)}</div>"
            f"<script>{JS}</script></body></html>")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", help="run_report.json to read")
    ap.add_argument("-o", "--out", help="HTML output path "
                    "(default: report path with .html)")
    ap.add_argument("--check", action="store_true",
                    help="validate the schema and exit (no HTML)")
    ap.add_argument("--profile", action="store_true",
                    help="render a host-profile export as a flame-style "
                    "text table (requires a mron.host_profile/1 file)")
    ap.add_argument("--top", type=int, default=10, metavar="N",
                    help="rows in the --profile top-self-time list "
                    "(default 10)")
    args = ap.parse_args(argv)

    try:
        with open(args.report) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {args.report}: {e}", file=sys.stderr)
        return 1

    # Host-profile exports are a separate, quarantined schema: wall-clock
    # nondeterministic, never part of run_report.json. Detect and branch.
    if isinstance(report, dict) and report.get("schema") == PROFILE_SCHEMA:
        errors = validate_profile(report)
        if errors:
            for e in errors:
                print(f"schema violation: {e}", file=sys.stderr)
            return 1
        if args.check:
            events = sum(s["events"]
                         for s in report["subsystems"].values())
            print(f"{args.report}: valid {PROFILE_SCHEMA} "
                  f"({events:,} events, {len(report['frames'])} frames, "
                  f"{report['clock']['threads']} thread(s))")
            return 0
        print(render_profile(report, top_n=args.top))
        return 0
    if args.profile:
        print(f"error: {args.report}: --profile needs a {PROFILE_SCHEMA} "
              f"file (schema is {report.get('schema')!r})", file=sys.stderr)
        return 1

    warnings = []
    errors = validate(report, warnings)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if errors:
        for e in errors:
            print(f"schema violation: {e}", file=sys.stderr)
        return 1
    if args.check:
        # Clamped quantiles are valid but untrustworthy — flag them.
        for name in sorted(report["metrics"]):
            if name.endswith(".p99_clamped") and report["metrics"][name]:
                base = name[: -len(".p99_clamped")]
                overflow = report["metrics"].get(base + ".overflow_count", 0)
                print(f"warning: {base}: p99 clamped to the last finite "
                      f"bucket bound ({fmt(overflow)} overflow samples)",
                      file=sys.stderr)
        n = len(report["series"]["series"])
        nseg = sum(len(j["segments"])
                   for j in report["critical_path"]["jobs"])
        print(f"{args.report}: valid {report['schema']} "
              f"({len(report['jobs'])} jobs, {n} series, "
              f"{len(report['metrics'])} metrics, "
              f"{nseg} critical-path segments)")
        return 0

    out = args.out or (args.report.rsplit(".", 1)[0] + ".html")
    with open(out, "w") as f:
        f.write(render(report))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    # Die quietly on a closed pipe (`... --profile | head`), like any
    # well-behaved filter.
    try:
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    except (AttributeError, ValueError):
        pass
    sys.exit(main(sys.argv[1:]))
