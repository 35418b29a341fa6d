#include "trace.h"

#include <algorithm>
#include <iomanip>
#include <stdexcept>
#include <utility>

namespace perfbench {

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::uint64_t Tracer::open(std::string name, std::uint64_t parent,
                           std::uint64_t round) {
  if (parent > spans_.size())
    throw std::invalid_argument("Tracer::open: unknown parent span");
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.round = round;
  s.start_s = now();
  s.end_s = s.start_s;
  spans_.push_back(std::move(s));
  return spans_.size();
}

void Tracer::close(std::uint64_t id) {
  if (id == 0 || id > spans_.size())
    throw std::invalid_argument("Tracer::close: unknown span");
  spans_[id - 1].end_s = now();
}

std::uint64_t Tracer::add(Span span) {
  if (span.parent > spans_.size())
    throw std::invalid_argument("Tracer::add: unknown parent span");
  spans_.push_back(std::move(span));
  return spans_.size();
}

void write_spans_json(std::ostream& out, const std::vector<Span>& spans) {
  out << std::setprecision(9) << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i + 1 << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"round\":" << s.round
        << ",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent > 0)
      children[s.parent - 1].emplace_back(s.start_s, s.end_s);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    double reach = spans[i].start_s;
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, reach);
      const double hi = std::min(e, spans[i].end_s);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(e, spans[i].end_s));
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

}  // namespace perfbench
