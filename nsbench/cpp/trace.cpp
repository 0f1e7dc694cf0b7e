#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>

namespace nsbench {

double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

/// Layer of a span name: the text before its first '.'.
std::string layerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

Tracer::Scope Tracer::span(const char* name) {
  if (!enabled_) return Scope(nullptr, -1);
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  span.start = secondsBetween(origin_, Clock::now());
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return Scope(this, index);
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end =
      secondsBetween(origin_, Clock::now());
  // Scopes are lexically nested, so the span closing is the innermost.
  open_.pop_back();
}

std::map<std::string, double> Tracer::selfSeconds(int op) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  // Spans of one thread nest without overlapping, so a parent's covered
  // time is the plain sum of its children's durations.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end - span.start;
    }
  }
  std::map<std::string, double> byLayer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].op == op) byLayer[layerOf(spans_[i].name)] += self[i];
  }
  return byLayer;
}

void Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %d, \"op\": %d, \"thread\": %llu}\n",
                 span.name.c_str(), span.start, span.end, span.parent,
                 span.op, static_cast<unsigned long long>(span.thread));
  }
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace nsbench
