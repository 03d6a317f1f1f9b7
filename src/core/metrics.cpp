#include "core/metrics.hpp"

#include <algorithm>
#include <charconv>

namespace progmp {
namespace {

int bucket_of(std::int64_t value) {
  int b = 0;
  while (b < 63 && value >= (std::int64_t{1} << b)) ++b;
  return b;  // value < 2^b
}

/// `value` with one decimal, as printf's "%.1f" renders it. A histogram
/// mean is at most INT64_MAX, so 32 chars always suffice.
std::string fixed1(double value) {
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, value, std::chars_format::fixed, 1);
  return std::string(buf, r.ptr);
}

}  // namespace

void MetricHistogram::add(std::int64_t value) {
  value = std::max<std::int64_t>(value, 0);
  ++buckets_[bucket_of(value)];
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  ++count_;
  sum_ += value;
}

std::int64_t MetricHistogram::percentile(double p) const {
  PROGMP_CHECK(p >= 0.0 && p <= 100.0);
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::int64_t>(
      p / 100.0 * static_cast<double>(count_ - 1)) + 1;
  std::int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) {
      // Upper bound of bucket b (values < 2^b), clamped to the true max.
      const std::int64_t upper = b >= 63 ? max_ : (std::int64_t{1} << b) - 1;
      return std::min(upper, max_);
    }
  }
  return max_;
}

std::int64_t* MetricsRegistry::counter(const std::string& name) {
  return &counters_[name];
}

std::int64_t* MetricsRegistry::gauge(const std::string& name) {
  return &gauges_[name];
}

MetricHistogram* MetricsRegistry::histogram(const std::string& name) {
  return &histograms_[name];
}

std::int64_t MetricsRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::int64_t MetricsRegistry::gauge_value(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

std::string MetricsRegistry::export_prefix() const {
  return conn_id_ >= 0 ? "conn" + std::to_string(conn_id_) + "." : "";
}

std::string MetricsRegistry::proc_dump() const {
  const std::string prefix = export_prefix();
  std::string out;
  for (const auto* series : {&counters_, &gauges_}) {
    for (const auto& [name, value] : *series) {
      out += prefix + name + ' ' + std::to_string(value) + '\n';
    }
  }
  for (const auto& [name, h] : histograms_) {
    out += prefix + name + " count=" + std::to_string(h.count()) +
           " mean=" + fixed1(h.mean()) +
           " p50=" + std::to_string(h.percentile(50)) +
           " p99=" + std::to_string(h.percentile(99)) +
           " max=" + std::to_string(h.max()) + '\n';
  }
  return out;
}

std::string MetricsRegistry::to_jsonl() const {
  const std::string prefix = export_prefix();
  std::string out;
  auto scalar = [&](const char* kind, const std::string& name,
                    std::int64_t value) {
    out += std::string("{\"kind\":\"") + kind + "\",\"name\":\"" + prefix +
           name + "\",\"value\":" + std::to_string(value) + "}\n";
  };
  for (const auto& [name, value] : counters_) scalar("counter", name, value);
  for (const auto& [name, value] : gauges_) scalar("gauge", name, value);
  for (const auto& [name, h] : histograms_) {
    out += "{\"kind\":\"histogram\",\"name\":\"" + prefix + name +
           "\",\"count\":" + std::to_string(h.count()) +
           ",\"sum\":" + std::to_string(h.sum()) +
           ",\"max\":" + std::to_string(h.max()) + "}\n";
  }
  return out;
}

}  // namespace progmp
