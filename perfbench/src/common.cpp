#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double peak_rss_mb() {
  // VmHWM is this program's own high-water mark. ru_maxrss is not: Linux
  // carries it across exec, so it would include the launcher's footprint.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

bool RepBudget::another() {
  const int reps = static_cast<int>(rep_s_.size());
  rep_start_ = Clock::now();
  if (reps < min_reps_) return true;
  const double typical = median(rep_s_);
  return s_between(start_, rep_start_) + typical <= seconds_;
}

void RepBudget::done() { rep_s_.push_back(s_between(rep_start_, Clock::now())); }

void write_spans(const std::string& dir, const std::string& workload,
                 const std::vector<Span>& spans) {
  if (dir.empty()) return;
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + workload + ".spans";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "perfbench spans v1 workload=%s records=%zu record_bytes=%zu "
               "fields=start_ns:i64,dur_ns:u32,arg:u32,parent:u32,layer:u8,"
               "backend:u8,useful:u8,pad:u8\n",
               workload.c_str(), spans.size(), sizeof(Span));
  std::fwrite(spans.data(), sizeof(Span), spans.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %zu spans to %s\n", spans.size(), path.c_str());
}

}  // namespace perfbench
