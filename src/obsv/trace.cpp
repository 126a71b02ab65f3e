#include "obsv/trace.hpp"

#include <algorithm>

namespace xts::obsv {

std::string_view cat_name(Cat c) noexcept {
  switch (c) {
    case Cat::kMessage: return "msg";
    case Cat::kCollective: return "coll";
    case Cat::kPhase: return "phase";
    case Cat::kCompute: return "compute";
    case Cat::kNetwork: return "net";
    case Cat::kEngine: return "engine";
    case Cat::kIo: return "io";
  }
  return "?";
}

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  names_.emplace_back();  // name id 0 = the empty name
  name_ids_.emplace(std::string{}, 0U);
}

std::uint32_t TraceSink::intern(std::string_view name) {
  auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

const std::string& TraceSink::name(std::uint32_t id) const {
  return names_.at(id);
}

void TraceSink::emit(const TraceEvent& e) {
  if (ring_.size() == capacity_) {
    ring_[head_] = e;
    if (++head_ == capacity_) head_ = 0;
    ++dropped_;
    return;
  }
  if (ring_.size() == ring_.capacity()) {
    const std::size_t grown = std::max<std::size_t>(64, 2 * ring_.size());
    ring_.reserve(std::min(capacity_, grown));
  }
  ring_.push_back(e);
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for_each([&](const TraceEvent& e) { out.push_back(e); });
  return out;
}

void TraceSink::clear() {
  std::vector<TraceEvent>().swap(ring_);
  head_ = 0;
  dropped_ = 0;
}

}  // namespace xts::obsv
