#include "src/sim/trace.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace lottery {

Tracer::Tracer(SimDuration window) : window_(window) {
  if (window.nanos() <= 0) {
    throw std::invalid_argument("Tracer: window must be positive");
  }
}

void Tracer::AddProgress(ThreadId tid, SimTime now, int64_t delta) {
  const size_t w = static_cast<size_t>(now.nanos() / window_.nanos());
  auto& vec = progress_[tid];
  if (vec.size() <= w) {
    vec.resize(w + 1, 0);
  }
  vec[w] += delta;
  totals_[tid] += delta;
  if (w + 1 > num_windows_) {
    num_windows_ = w + 1;
  }
}

void Tracer::AddProgressRun(ThreadId tid, SimTime first, SimDuration spacing,
                            int64_t n) {
  if (n <= 0) {
    return;
  }
  if (spacing.nanos() <= 0) {
    throw std::invalid_argument("Tracer::AddProgressRun: spacing must be "
                                "positive");
  }
  const int64_t w_ns = window_.nanos();
  const int64_t s_ns = spacing.nanos();
  const int64_t t0 = first.nanos();
  auto& vec = progress_[tid];
  int64_t k = 0;
  while (k < n) {
    const size_t w = static_cast<size_t>((t0 + k * s_ns) / w_ns);
    // Ticks k..end-1 fall before this window's end: end is the smallest j
    // with t0 + j * s_ns >= (w + 1) * w_ns.
    const int64_t edge = static_cast<int64_t>(w + 1) * w_ns - t0;
    const int64_t end = std::min(n, (edge + s_ns - 1) / s_ns);
    if (vec.size() <= w) {
      vec.resize(w + 1, 0);
    }
    vec[w] += end - k;
    k = end;
  }
  totals_[tid] += n;
  const size_t last = static_cast<size_t>((t0 + (n - 1) * s_ns) / w_ns);
  if (last + 1 > num_windows_) {
    num_windows_ = last + 1;
  }
}

int64_t Tracer::TotalProgress(ThreadId tid) const {
  const auto it = totals_.find(tid);
  return it != totals_.end() ? it->second : 0;
}

int64_t Tracer::WindowProgress(ThreadId tid, size_t w) const {
  const auto it = progress_.find(tid);
  if (it == progress_.end() || w >= it->second.size()) {
    return 0;
  }
  return it->second[w];
}

int64_t Tracer::CumulativeThrough(ThreadId tid, size_t w) const {
  const auto it = progress_.find(tid);
  if (it == progress_.end()) {
    return 0;
  }
  int64_t sum = 0;
  for (size_t i = 0; i <= w && i < it->second.size(); ++i) {
    sum += it->second[i];
  }
  return sum;
}

void Tracer::RecordSample(const std::string& series, SimTime now,
                          double value) {
  samples_[series].push_back(Sample{now.ToSecondsF(), value});
}

const std::vector<Tracer::Sample>& Tracer::Samples(
    const std::string& series) const {
  static const std::vector<Sample> kEmpty;
  const auto it = samples_.find(series);
  return it != samples_.end() ? it->second : kEmpty;
}

RunningStat Tracer::SampleStats(const std::string& series) const {
  RunningStat stat;
  for (const Sample& s : Samples(series)) {
    stat.Add(s.value);
  }
  return stat;
}

bool Tracer::HasSeries(const std::string& series) const {
  return samples_.count(series) > 0;
}

void Tracer::EnableDispatchLog(size_t cap) {
  dispatch_log_enabled_ = true;
  dispatch_cap_ = cap;
  dispatches_.reserve(std::min<size_t>(cap, 4096));
}

void Tracer::RecordDispatch(ThreadId tid, int cpu, SimTime start,
                            SimDuration used) {
  if (!dispatch_log_enabled_) {
    return;
  }
  if (dispatches_.size() >= dispatch_cap_) {
    ++dispatch_dropped_;
    return;
  }
  dispatches_.push_back(
      Dispatch{tid, cpu, start.ToSecondsF(), used.ToSecondsF()});
}

std::string Tracer::DispatchesCsv() const {
  std::ostringstream out;
  if (dispatch_dropped_ > 0) {
    out << "# dropped=" << dispatch_dropped_
        << " dispatches past the log cap of " << dispatch_cap_ << "\n";
  }
  out << "tid,cpu,start_sec,duration_sec\n";
  for (const Dispatch& d : dispatches_) {
    out << d.tid << "," << d.cpu << "," << d.start_sec << ","
        << d.duration_sec << "\n";
  }
  return out.str();
}

std::string Tracer::WindowsCsv(const std::vector<ThreadId>& tids,
                               const std::vector<std::string>& labels) const {
  if (tids.size() != labels.size()) {
    throw std::invalid_argument("WindowsCsv: tids/labels size mismatch");
  }
  std::ostringstream out;
  out << "window_start_sec";
  for (const std::string& label : labels) {
    out << "," << label;
  }
  out << "\n";
  for (size_t w = 0; w < num_windows_; ++w) {
    out << static_cast<double>(w) * window_.ToSecondsF();
    for (const ThreadId tid : tids) {
      out << "," << WindowProgress(tid, w);
    }
    out << "\n";
  }
  return out.str();
}

std::string Tracer::SeriesCsv(const std::string& series) const {
  std::ostringstream out;
  out << "time_sec,value\n";
  for (const Sample& sample : Samples(series)) {
    out << sample.time_sec << "," << sample.value << "\n";
  }
  return out.str();
}

}  // namespace lottery
