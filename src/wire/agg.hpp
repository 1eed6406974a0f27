#pragma once
// cx::wire sender-side message aggregation (TRAM-style).
//
// Fine-grained cross-PE sends pay a fixed per-message software cost
// (envelope hand-off, scheduler wakeup, cost-model alpha) that dwarfs
// the bytes moved. Following the topological aggregation module of
// Charm++/Charm4py (TRAM), each sending PE keeps per-(destination,
// size-class) coalescing buffers: small application messages are
// appended to an open batch instead of being handed to the transport,
// and the whole batch travels as ONE wire message that the receiver
// unpacks back into the normal delivery path.
//
// Batch wire format (native endianness, like every pup payload: since
// the SocketMachine backend, batches DO cross process boundaries — the
// connection handshake in src/net/frame.hpp rejects peers whose byte
// order or primitive widths differ, so same-ABI is guaranteed by the
// time a batch hits a socket):
//
//   u32 count | count x ( u32 handler | u32 len | len bytes )
//
// Flush policy — a batch is sealed and transmitted when:
//   * bytes   — appending would grow it past flush_bytes,
//   * count   — it holds flush_count messages,
//   * idle    — the owning scheduler runs out of work (SocketMachine)
//               or the per-destination flush timer fires (SimMachine's
//               deterministic DES equivalent),
//   * ordering— a message that cannot join the open batch (different
//               size class, oversized, or protocol traffic) is headed
//               to the same destination: the batch is sealed first so
//               it stays ahead of the bypassing message.
//
// Ordering argument: per destination at most ONE batch is open at a
// time (switching size class seals the old class first), every append
// preserves arrival order inside the batch, and any non-absorbed send
// to a destination seals that destination's open batch before itself
// entering the transport. Per sender->destination delivery order is
// therefore exactly the send order, across flush boundaries.
//
// Exemptions: quiescence-detection probes and cx::ft protocol traffic
// (seq/ack/retransmit, checkpoint blobs) must not sit in a buffer —
// they are marked kWireNoAgg / carry ft_flags and bypass aggregation
// entirely (flushing any open batch ahead of themselves). Batches
// themselves enroll in the cx::ft reliable-delivery protocol as single
// units, so a retransmitted batch is still a batch.
//
// The aggregator is per sending PE and is only ever touched by that
// PE's scheduler thread, so it needs no locks.

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "machine/message.hpp"
#include "trace/trace.hpp"
#include "wire/buffer.hpp"

namespace cxu {
class Options;
}

namespace cx::wire {

struct AggConfig {
  std::size_t max_msg_bytes = 1024;  ///< larger payloads bypass aggregation
  std::size_t flush_bytes = 8192;    ///< seal when a batch reaches this size
  std::uint32_t flush_count = 64;    ///< seal after this many messages
  double flush_delay_s = 1.0e-5;     ///< SimMachine flush-timer delay
};

/// Is aggregation enabled? Defaults to off; seeded from CHARMX_WIRE_AGG
/// and overridable per run via --wire-agg=on|off. Machines sample it at
/// construction, so toggle it before building a Runtime.
[[nodiscard]] bool agg_enabled() noexcept;
void set_agg_enabled(bool on) noexcept;

[[nodiscard]] AggConfig agg_config() noexcept;
void set_agg_config(const AggConfig& cfg) noexcept;

/// Read --wire-agg[=on|off], --wire-agg-bytes=<n>, --wire-agg-count=<n>.
/// Called from wire::configure_from_options (pool.cpp) so every bench /
/// example that wires up --wire-pool gets the aggregation flags too.
void configure_agg_from_options(const cxu::Options& opt);

// ---- batch wire format ---------------------------------------------------

inline constexpr std::size_t kAggHeaderBytes = 4;  ///< u32 message count
inline constexpr std::size_t kAggRecordBytes = 8;  ///< u32 handler + u32 len

/// Why a batch was sealed (trace counters).
enum class AggFlush : std::uint8_t { Bytes = 0, Count, Idle, Ordering };

/// Walk the records of a sealed batch payload in append order. `fn`
/// receives (handler, bytes, len). Returns false if the payload is
/// malformed (truncated record or count mismatch).
template <typename Fn>
bool for_each_agg_record(const Buffer& payload, Fn&& fn) {
  const std::byte* p = payload.data();
  const std::size_t n = payload.size();
  if (n < kAggHeaderBytes) return false;
  std::uint32_t count = 0;
  std::memcpy(&count, p, sizeof(count));
  std::size_t off = kAggHeaderBytes;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (off + kAggRecordBytes > n) return false;
    std::uint32_t handler = 0, len = 0;
    std::memcpy(&handler, p + off, sizeof(handler));
    std::memcpy(&len, p + off + sizeof(handler), sizeof(len));
    off += kAggRecordBytes;
    if (off + len > n) return false;
    fn(handler, p + off, len);
    off += len;
  }
  return off == n;
}

/// May this message join a batch? Cross-PE, serialized, small, and not
/// protocol traffic (ft flags, wire flags, modeled size overrides).
[[nodiscard]] inline bool agg_eligible(const cxm::Message& m,
                                       const AggConfig& cfg) noexcept {
  return m.src_pe >= 0 && m.dst_pe != m.src_pe && m.local == nullptr &&
         m.ft_flags == 0 && m.wire_flags == 0 && m.size_override == 0 &&
         !m.data.empty() && m.data.size() <= cfg.max_msg_bytes;
}

/// One sending PE's coalescing state: per-destination open batches and
/// a FIFO of sealed batches the machine drains via next_ready().
class PeAggregator {
 public:
  explicit PeAggregator(const AggConfig& cfg) : cfg_(cfg) {
    if (cfg_.flush_count < 2) cfg_.flush_count = 2;
    if (cfg_.flush_bytes < cfg_.max_msg_bytes) {
      cfg_.flush_bytes = cfg_.max_msg_bytes;
    }
  }

  /// Append an eligible message (caller checked agg_eligible) to its
  /// destination's open batch, sealing as the flush policy dictates.
  /// Returns true when the machine should arm a flush timer for this
  /// destination (its open batch has no live timer yet); read
  /// generation() for the stamp.
  bool absorb(cxm::MessagePtr msg);

  /// Seal `dst`'s open batch (no-op when nothing is pending).
  void flush_dst(int dst, AggFlush why);

  /// Deterministic timer flush: seal `dst`'s open batch only if `gen`
  /// matches its arming generation (stale timers are no-ops).
  void flush_timer(int dst, std::uint64_t gen);

  /// Seal every open batch (scheduler-idle hook).
  void flush_all(AggFlush why);

  [[nodiscard]] bool dst_pending(int dst) const noexcept;
  [[nodiscard]] bool has_pending() const noexcept {
    return pending_dsts_ > 0;
  }

  /// Arming generation of `dst` (bumps whenever its open batch closes).
  [[nodiscard]] std::uint64_t generation(int dst) const;

  /// Pop the next sealed batch in seal order, or nullptr when drained.
  cxm::MessagePtr next_ready();

  [[nodiscard]] const AggConfig& config() const noexcept { return cfg_; }

 private:
  /// Size classes keep batches dense: tiny control-sized messages are
  /// not interleaved with near-max payloads. Switching class seals the
  /// open batch (the ordering rule), so only one is ever non-empty.
  static constexpr int kClasses = 3;
  [[nodiscard]] int class_of(std::size_t n) const noexcept {
    if (n <= 128) return 0;
    if (n <= 512) return 1;
    return 2;
  }

  struct ClassBuf {
    cxm::MessagePtr msg;  ///< open batch (header already reserved)
    std::size_t bytes = 0;
    std::uint32_t count = 0;
  };
  struct DstAgg {
    ClassBuf cls[kClasses];
    int active = -1;         ///< the (single) non-empty class, or -1
    std::uint64_t gen = 0;   ///< bumps on every seal
    std::uint64_t armed_gen = ~std::uint64_t{0};  ///< last timer stamp
  };

  void seal(DstAgg& d, AggFlush why);

  AggConfig cfg_;
  std::unordered_map<int, DstAgg> dsts_;
  std::vector<cxm::MessagePtr> ready_;
  std::size_t ready_head_ = 0;
  int pending_dsts_ = 0;
};

}  // namespace cx::wire
