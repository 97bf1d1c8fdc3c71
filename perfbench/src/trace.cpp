#include "trace.h"

#include <fstream>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kGrid: return "grid";
    case Layer::kCore: return "core";
    case Layer::kSim: return "sim";
    case Layer::kDiag: return "diag";
    case Layer::kIlp: return "ilp";
  }
  return "?";
}

Tracer::Tracer() : epoch_(Clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, Layer layer)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  Span span;
  span.name = std::move(name);
  span.layer = layer;
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  span.run = tracer_.run_;
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
  // Read the clock last so the bookkeeping above is charged to the parent.
  tracer_.spans_[index_].start = tracer_.now();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[index_].end = tracer_.now();
  tracer_.open_.pop_back();
}

std::map<Layer, double> Tracer::self_seconds_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= spans_[i].end - spans_[i].start;
    }
  }
  std::map<Layer, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_layer[spans_[i].layer] += self[i];
  }
  return by_layer;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"run\":" << span.run << ",\"name\":\"" << span.name
        << "\",\"layer\":\"" << layer_name(span.layer)
        << "\",\"start\":" << span.start << ",\"end\":" << span.end
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
