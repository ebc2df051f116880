#include "netsim/packet.h"

#include <atomic>

namespace cavenet::netsim {
namespace {

thread_local std::uint64_t cow_detaches = 0;

}  // namespace

std::uint32_t detail::next_header_type_id() noexcept {
  // Ids only need to be distinct, not stable across runs: they never
  // appear in any output, so assignment order cannot affect determinism.
  static std::atomic<std::uint32_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Packet::next_uid() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Packet::Packet(std::size_t payload_bytes)
    : uid_(next_uid()),
      payload_bytes_(static_cast<std::uint32_t>(payload_bytes)) {}

std::size_t Packet::size_bytes() const noexcept {
  std::size_t total = payload_bytes_;
  for (std::uint32_t i = 0; i < top_; ++i) {
    total += stack_->slots[i].header->size_bytes();
  }
  return total;
}

detail::HeaderStack& Packet::writable_stack() {
  if (stack_ == nullptr) {
    stack_ = new detail::HeaderStack();
    return *stack_;
  }
  if (stack_->refs == 1) {
    // Uniquely owned: re-establish top_ == slots.size() by dropping any
    // slots hidden by earlier view-pops, then mutate in place.
    if (top_ < stack_->slots.size()) stack_->slots.resize(top_);
    return *stack_;
  }
  // Shared: detach onto a private clone of the visible prefix.
  auto* fresh = new detail::HeaderStack();
  fresh->slots.reserve(top_);
  for (std::uint32_t i = 0; i < top_; ++i) {
    const detail::HeaderSlot& slot = stack_->slots[i];
    fresh->slots.push_back(
        detail::HeaderSlot{slot.type_id, slot.header->clone()});
  }
  --stack_->refs;
  stack_ = fresh;
  ++cow_detaches;
  return *stack_;
}

std::uint64_t Packet::cow_detach_count() noexcept { return cow_detaches; }

}  // namespace cavenet::netsim
