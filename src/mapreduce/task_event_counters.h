// Per-job handles for the counters that map and reduce attempts bump. The
// MrAppMaster owns one set and hands it to every attempt it launches, so
// each name is looked up once per job rather than once per attempt.
#pragma once

#include "obs/recorder.h"

namespace mron::mapreduce {

struct TaskEventCounters {
  obs::EventCounter map_spills{"mr.map.spills"};
  obs::EventCounter map_spill_records{"mr.map.spill_records"};
  obs::EventCounter map_spill_bytes{"mr.map.spill_bytes"};
  obs::EventCounter map_merge_rounds{"mr.map.merge_rounds"};
  obs::EventCounter fetches{"mr.shuffle.fetches"};
  obs::EventCounter fetch_bytes{"mr.shuffle.bytes"};
  obs::EventCounter fetch_failures{"mr.shuffle.fetch_failures"};
  obs::EventCounter reduce_spill_records{"mr.reduce.spill_records"};
  obs::EventCounter reduce_merge_passes{"mr.reduce.merge_passes"};
};

}  // namespace mron::mapreduce
