// In-memory span recorder for the traced replay.
//
// A span is opened by constructing a Trace::Scope and closed by its
// destructor; spans opened while another is open become its children.
// A layer's self time is the summed duration of its spans minus the
// spans nested directly inside them, so the self times of all layers
// add up to the duration of the root spans exactly.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Trace {
 public:
  struct Record {
    std::string name;
    int parent = -1;
    double t0 = 0.0, t1 = 0.0;  // seconds since the trace started
  };

  class Scope {
   public:
    Scope(Trace& trace, const char* name) : trace_(trace) {
      index_ = static_cast<int>(trace_.records_.size());
      trace_.records_.push_back(
          {name, trace_.open_.empty() ? -1 : trace_.open_.back(),
           trace_.now(), 0.0});
      trace_.open_.push_back(index_);
    }
    ~Scope() {
      trace_.records_[static_cast<std::size_t>(index_)].t1 = trace_.now();
      trace_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    int index_ = 0;
  };

  Trace() : start_(clock::now()) {}

  /// Summed self seconds per span name.
  std::map<std::string, double> self_times() const {
    std::map<std::string, double> self;
    for (const auto& r : records_) {
      self[r.name] += r.t1 - r.t0;
      if (r.parent >= 0)
        self[records_[static_cast<std::size_t>(r.parent)].name] -=
            r.t1 - r.t0;
    }
    return self;
  }

  /// Summed inclusive seconds of the spans called `name`.
  double inclusive(const std::string& name) const {
    double total = 0.0;
    for (const auto& r : records_)
      if (r.name == name) total += r.t1 - r.t0;
    return total;
  }

  /// Inclusive seconds of every root span, in order.
  std::vector<double> root_durations() const {
    std::vector<double> out;
    for (const auto& r : records_)
      if (r.parent < 0) out.push_back(r.t1 - r.t0);
    return out;
  }

 private:
  using clock = std::chrono::steady_clock;
  double now() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  clock::time_point start_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

}  // namespace perfbench
