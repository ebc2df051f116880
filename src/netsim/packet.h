// Packet with a typed, copy-on-write header stack (ns-3 style).
//
// Layers push their headers onto a packet on the way down and pop them on
// the way up. Copying a packet is O(1): copies share one immutable header
// stack through an intrusive refcount, so broadcast delivery hands every
// receiver a 24-byte view instead of deep-cloning the stack per receiver.
// The copies stay logically independent — popping from a shared stack
// copies the header out and shrinks only that packet's view, and any
// mutation (push, mutable peek) detaches onto a private clone first
// (docs/SCALING.md "Allocation"). Each header type gets an interned
// integer type id, so peek/find/pop match on an integer compare instead
// of dynamic_cast — headers are matched by their exact pushed type.
//
// Packets (and their shared stacks) are confined to one simulator thread,
// like the rest of the kernel: the refcount is deliberately non-atomic.
// The uid is preserved by copies so a frame can be correlated across hops
// in logs and metrics.
#ifndef CAVENET_NETSIM_PACKET_H
#define CAVENET_NETSIM_PACKET_H

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cavenet::netsim {

/// Base class for all protocol headers.
class Header {
 public:
  virtual ~Header() = default;
  virtual std::unique_ptr<Header> clone() const = 0;
  /// Wire size contributed by this header.
  virtual std::size_t size_bytes() const = 0;
  /// Short name for logs, e.g. "aodv-rreq". Implementations return
  /// string literals, so views stay valid for the process lifetime and
  /// per-event logging never allocates.
  virtual std::string_view name() const = 0;
};

/// CRTP helper providing clone() for copyable header types.
template <typename T>
class HeaderBase : public Header {
 public:
  std::unique_ptr<Header> clone() const override {
    return std::make_unique<T>(static_cast<const T&>(*this));
  }
};

namespace detail {

std::uint32_t next_header_type_id() noexcept;

/// Interned id of header type T; assigned once per type on first use,
/// process-wide. Integer compare + static_cast replaces dynamic_cast on
/// every peek/find/pop.
template <typename T>
std::uint32_t header_type_id() noexcept {
  static const std::uint32_t id = next_header_type_id();
  return id;
}

struct HeaderSlot {
  std::uint32_t type_id;
  std::unique_ptr<Header> header;
};

/// Refcounted header storage shared between packet copies. `refs` counts
/// owning Packet objects (non-atomic: packets never cross threads).
struct HeaderStack {
  std::uint32_t refs = 1;
  std::vector<HeaderSlot> slots;
};

}  // namespace detail

class Packet {
 public:
  /// A packet carrying `payload_bytes` of application payload.
  explicit Packet(std::size_t payload_bytes = 0);

  Packet(const Packet& other) noexcept
      : uid_(other.uid_),
        stack_(other.stack_),
        payload_bytes_(other.payload_bytes_),
        top_(other.top_) {
    if (stack_ != nullptr) ++stack_->refs;
  }
  Packet& operator=(const Packet& other) noexcept {
    // Capture before release(): on self-assignment release() nulls
    // other.stack_ through the alias.
    detail::HeaderStack* stack = other.stack_;
    if (stack != nullptr) ++stack->refs;
    release();
    uid_ = other.uid_;
    stack_ = stack;
    payload_bytes_ = other.payload_bytes_;
    top_ = other.top_;
    return *this;
  }
  Packet(Packet&& other) noexcept
      : uid_(other.uid_),
        stack_(std::exchange(other.stack_, nullptr)),
        payload_bytes_(other.payload_bytes_),
        top_(std::exchange(other.top_, 0)) {}
  Packet& operator=(Packet&& other) noexcept {
    if (this != &other) {
      release();
      uid_ = other.uid_;
      stack_ = std::exchange(other.stack_, nullptr);
      payload_bytes_ = other.payload_bytes_;
      top_ = std::exchange(other.top_, 0);
    }
    return *this;
  }
  ~Packet() { release(); }

  /// Unique id assigned at construction; preserved by copies.
  std::uint64_t uid() const noexcept { return uid_; }

  /// Total wire size: payload plus all headers.
  std::size_t size_bytes() const noexcept;
  std::size_t payload_bytes() const noexcept { return payload_bytes_; }

  /// Pushes a header on top of the stack (detaches a shared stack).
  template <typename T>
  void push(T header) {
    detail::HeaderStack& s = writable_stack();
    s.slots.push_back(detail::HeaderSlot{
        detail::header_type_id<T>(),
        std::make_unique<T>(std::move(header))});
    ++top_;
  }

  /// Pops the top header, which must be a T (throws std::logic_error
  /// otherwise — a layering violation, not a runtime condition). On a
  /// shared stack this copies the header out and shrinks only this
  /// packet's view; the storage itself is untouched.
  template <typename T>
  T pop() {
    const detail::HeaderSlot* slot = top_slot();
    if (slot == nullptr || slot->type_id != detail::header_type_id<T>()) {
      throw std::logic_error(
          "packet: top header is not " +
          (slot == nullptr ? std::string("<empty>")
                           : std::string(slot->header->name())));
    }
    if (stack_->refs == 1) {
      // Sole owner: drop any suffix hidden by earlier view-pops, then
      // pop destructively.
      stack_->slots.resize(top_);
      T out = std::move(static_cast<T&>(*stack_->slots.back().header));
      stack_->slots.pop_back();
      --top_;
      return out;
    }
    T out = static_cast<const T&>(*slot->header);
    --top_;
    return out;
  }

  /// Top header as T, or nullptr if absent or of another type. The
  /// mutable overload hands out a writable pointer, so it detaches a
  /// shared stack first — use the const overload (std::as_const) on
  /// read-only paths to keep broadcast copies shared.
  template <typename T>
  T* peek() {
    const detail::HeaderSlot* slot = top_slot();
    if (slot == nullptr || slot->type_id != detail::header_type_id<T>()) {
      return nullptr;
    }
    detail::HeaderStack& s = writable_stack();
    return static_cast<T*>(s.slots.back().header.get());
  }
  template <typename T>
  const T* peek() const noexcept {
    const detail::HeaderSlot* slot = top_slot();
    if (slot == nullptr || slot->type_id != detail::header_type_id<T>()) {
      return nullptr;
    }
    return static_cast<const T*>(slot->header.get());
  }

  /// Searches the whole stack for a header of type T (topmost match).
  template <typename T>
  const T* find() const noexcept {
    if (stack_ == nullptr) return nullptr;
    const std::uint32_t id = detail::header_type_id<T>();
    for (std::uint32_t i = top_; i > 0; --i) {
      const detail::HeaderSlot& slot = stack_->slots[i - 1];
      if (slot.type_id == id) {
        return static_cast<const T*>(slot.header.get());
      }
    }
    return nullptr;
  }

  std::size_t header_count() const noexcept { return top_; }

  /// Name of the topmost header, or "raw" for a bare payload.
  std::string_view top_name() const {
    const detail::HeaderSlot* slot = top_slot();
    return slot == nullptr ? std::string_view("raw") : slot->header->name();
  }

  /// Copy-on-write detaches performed by this thread since it started
  /// (perf tests / diagnostics; every detach clones the visible stack).
  static std::uint64_t cow_detach_count() noexcept;

 private:
  const detail::HeaderSlot* top_slot() const noexcept {
    return (stack_ == nullptr || top_ == 0) ? nullptr
                                            : &stack_->slots[top_ - 1];
  }
  /// Storage safe to mutate: creates it on first push, trims the hidden
  /// suffix when uniquely owned, clones the visible prefix (the actual
  /// copy-on-write) when shared.
  detail::HeaderStack& writable_stack();
  void release() noexcept {
    if (stack_ != nullptr && --stack_->refs == 0) delete stack_;
    stack_ = nullptr;
  }
  static std::uint64_t next_uid() noexcept;

  std::uint64_t uid_;
  detail::HeaderStack* stack_ = nullptr;
  std::uint32_t payload_bytes_;
  std::uint32_t top_ = 0;
};

// The per-receiver broadcast capture [receiver, packet, power, duration]
// must fit the scheduler's 48-byte inline action buffer; a bigger Packet
// would silently push every delivery onto the heap.
static_assert(sizeof(Packet) == 24, "Packet is a 24-byte shared view");

}  // namespace cavenet::netsim

#endif  // CAVENET_NETSIM_PACKET_H
