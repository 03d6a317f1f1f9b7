// The three benchmark workloads. Each runs reps of fixed work, built from
// the seed, until the run's time budget is spent. Untraced, it reports the
// end-to-end metrics: each timed operation's fastest time over the reps,
// and the median set-up. Traced, it reports the per-layer metrics as
// medians over the traced reps.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Data path at scale: a few hundred WiFi+LTE users, minrtt on eBPF,
/// saturating bulk sources.
Result run_fleet_bulk(const Args& args);

/// Redundant scheduling on 1 %-lossy two-subflow connections, split evenly
/// across the interpreter, IR and eBPF backends.
Result run_redundant_lossy(const Args& args);

/// The compile pipeline alone: the built-in spec library loaded pass after
/// pass through ProgmpApi::load_scheduler.
Result run_spec_load(const Args& args);

/// Names of the per-layer metrics, in report order, with their units. Every
/// traced run reports all of them; a layer the workload does not exercise
/// reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
extern const LayerMetric kLayerMetrics[40];

}  // namespace perfbench
