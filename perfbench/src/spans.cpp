#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

double epoch_time() noexcept {
  using clock = std::chrono::system_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() noexcept {
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Spans& spans() {
  static Spans s;
  return s;
}

Spans::Scope::Scope(Spans& s, const char* name, std::uint64_t group)
    : spans_(s) {
  if (!s.on_) return;
  saved_parent_ = s.open_;
  index_ = static_cast<int>(s.recs_.size());
  s.recs_.push_back(Rec{name, s.open_, group, wall_time(), 0.0});
  s.open_ = index_;
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  spans_.recs_[static_cast<std::size_t>(index_)].t1 = wall_time();
  spans_.open_ = saved_parent_;
}

bool Spans::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os.precision(17);
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    os << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \"" << r.name
       << "\", \"parent\": " << r.parent << ", \"group\": " << r.group
       << ", \"start\": " << r.t0 << ", \"end\": " << r.t1 << "}";
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

namespace {

void put_num(std::ostringstream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

void put_vec(std::ostringstream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ',';
    put_num(os, v[i]);
  }
  os << ']';
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"items\": ";
  put_num(os, items);
  os << ", \"item_seconds\": ";
  put_num(os, item_seconds);
  os << ", \"samples_ms\": ";
  put_vec(os, samples_ms);
  os << ", \"setup_s\": ";
  put_vec(os, setup_s);
  os << ", \"values\": {";
  bool first = true;
  for (const auto& [k, v] : values) {
    os << (first ? "" : ", ") << '"' << k << "\": ";
    put_num(os, v);
    first = false;
  }
  os << "}, \"series\": {";
  first = true;
  for (const auto& [k, v] : series) {
    os << (first ? "" : ", ") << '"' << k << "\": ";
    put_vec(os, v);
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
