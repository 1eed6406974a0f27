#pragma once
// cx::wire block pool — per-PE free lists for message payload buffers
// and Message objects.
//
// Every heap block the wire layer hands out originates from ::operator
// new and is returned through free_block(), which recycles it into a
// thread-local free list when pooling is enabled (and the block's
// capacity is one of the pool's size classes) or releases it to the
// system otherwise. Because blocks always *originate* from the system
// allocator, the pool can be toggled at any time — --wire-pool=off
// simply stops recycling; blocks allocated while the pool was on are
// still freed correctly.
//
// Threading: each scheduler thread (one per local PE on SocketMachine,
// the single DES thread on SimMachine, plus the driver thread) keeps
// thread-local free lists, so the fast path takes no lock. Messages
// routinely migrate threads — allocated on the sender's PE, freed on
// the receiver's — so each size class also has a mutex-protected
// global overflow list; thread caches refill from / spill to it in
// batches, which keeps ping-pong patterns from starving the sender.

#include <cstddef>
#include <cstdint>

namespace cxu {
class Options;
}

namespace cx::wire {

/// Payload size classes are powers of two from kMinBlock to kMaxBlock;
/// requests above kMaxBlock get an exact-size system allocation that is
/// never recycled.
inline constexpr std::size_t kMinBlock = 256;
inline constexpr std::size_t kMaxBlock = std::size_t{1} << 20;  // 1 MiB

/// Fixed block size backing pooled Message objects (Message::operator
/// new). Holds sizeof(Message) with headroom; static_assert'd at the
/// Message definition.
inline constexpr std::size_t kMsgBlock = 256;

/// Allocate a payload block of at least `size` bytes; `*cap` receives
/// the actual capacity (the size class, or `size` when above
/// kMaxBlock). Never returns nullptr for size > 0.
[[nodiscard]] std::byte* alloc_block(std::size_t size, std::size_t* cap);

/// Return a block obtained from alloc_block. `cap` must be the capacity
/// alloc_block reported for it.
void free_block(std::byte* p, std::size_t cap) noexcept;

/// Backing store for pooled Message objects (class-specific operator
/// new/delete on cxm::Message).
[[nodiscard]] void* alloc_msg(std::size_t size);
void free_msg(void* p, std::size_t size) noexcept;

/// Is recycling enabled? Defaults to on; seeded from CHARMX_WIRE_POOL
/// (0/off/false disables) and overridable per run via --wire-pool=on|off.
[[nodiscard]] bool pool_enabled() noexcept;
void set_pool_enabled(bool on) noexcept;

/// Shared on/off parser for the wire layer's toggles (CHARMX_WIRE_POOL,
/// CHARMX_WIRE_AGG, --wire-pool, --wire-agg): exactly "0", "off" or
/// "false" (case-insensitive) mean off, any other value means on, and
/// nullptr (unset) returns `unset`. The old env parser matched any
/// value starting with 'o' except "on" — "omit" disabled the pool while
/// the documented "false" did not.
[[nodiscard]] bool parse_toggle(const char* v, bool unset) noexcept;

/// Read --wire-pool=on|off (also plain --wire-pool for "on") plus the
/// --wire-agg* aggregation flags (wire/agg.hpp).
void configure_from_options(const cxu::Options& opt);

/// Release every cached block (thread-local caches of the calling
/// thread plus the global overflow lists) back to the system. Handy for
/// leak-checked tests; the runtime never needs to call it.
void drain_caches() noexcept;

}  // namespace cx::wire
