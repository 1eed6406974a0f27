#pragma once
// cx::ft reliable-delivery bookkeeping, shared by both machine backends.
//
// The protocol: every cross-PE data message carries a per-(src,dst)
// sequence number; the receiver dedups (duplicates are acked but not
// delivered) and sends a machine-level ack; the sender keeps a copy and
// retransmits on timeout with exponential backoff + jitter until acked
// or until max_retries is exhausted — at which point it surfaces a typed
// PeFailure{Unreachable} instead of retrying forever.
//
// This header holds only the passive state (windows, dedup trackers,
// pending-copy records); the timer mechanics live in each backend
// (DES timer events in SimMachine, cv wait deadlines in the PE-thread
// SocketMachine) because they are fundamentally clock-specific.

#include <cstddef>
#include <cstdint>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "wire/buffer.hpp"

namespace cx::ft {

/// Receiver-side duplicate suppression for one (src,dst) link: a
/// low-water mark plus a sparse set of out-of-order deliveries, so
/// memory stays bounded by the reorder window rather than the message
/// count.
struct SeqTracker {
  std::uint64_t base = 0;         ///< every seq <= base was delivered
  std::set<std::uint64_t> ahead;  ///< delivered seqs > base

  /// Record `seq`; returns true if this is its first delivery.
  bool first_delivery(std::uint64_t seq) {
    if (seq <= base) return false;
    if (!ahead.insert(seq).second) return false;
    while (!ahead.empty() && *ahead.begin() == base + 1) {
      ahead.erase(ahead.begin());
      ++base;
    }
    return true;
  }
};

/// A sender-side copy of an unacked message, ready to retransmit. The
/// payload copy lives in a pooled wire buffer; retransmit clones are
/// rebuilt from it through the envelope builder (wire::clone_payload).
struct PendingSend {
  std::uint32_t handler = 0;
  std::int32_t dst_pe = 0;
  cx::wire::Buffer data;
  std::uint64_t size_override = 0;
  std::uint64_t seq = 0;
  /// Aggregation batches enroll as single units; the retransmit clone
  /// restores these flags so a resent batch is still unpacked as one.
  std::uint8_t wire_flags = 0;
  int attempts = 0;        ///< retransmissions so far
  double deadline = 0.0;   ///< backend clock of the next retransmit
};

/// Sender-side state for every destination reachable from one PE. Only
/// the owning PE's thread touches it (sends happen on the sender's
/// scheduler thread; acks are routed back to the sender's mailbox), so
/// no locking is needed.
struct SenderWindow {
  std::map<std::int32_t, std::uint64_t> next_seq;  ///< per destination
  /// Unacked copies keyed (dst, seq); ordered so abandon() is a range
  /// erase.
  std::map<std::pair<std::int32_t, std::uint64_t>, PendingSend> pending;

  /// Lazy-deletion min-heap over retransmit deadlines, so
  /// next_deadline() is O(log n) amortized instead of a full scan over
  /// thousands of unacked copies (chaos load). An entry is stale — and
  /// skipped on pop — when its (dst, seq) was acked/abandoned or when
  /// the pending copy was re-armed with a newer deadline. Deadlines are
  /// copied exactly (no arithmetic), so the equality check is safe on
  /// doubles.
  struct DueEntry {
    double deadline;
    std::int32_t dst;
    std::uint64_t seq;
  };
  struct DueLater {
    bool operator()(const DueEntry& a, const DueEntry& b) const noexcept {
      return a.deadline > b.deadline;
    }
  };
  std::priority_queue<DueEntry, std::vector<DueEntry>, DueLater> due;

  std::uint64_t allocate(std::int32_t dst) { return ++next_seq[dst]; }

  bool acked(std::int32_t dst, std::uint64_t seq) {
    return pending.erase({dst, seq}) > 0;
  }

  /// Register (dst, seq)'s current retransmit deadline in the heap.
  /// Call after inserting the pending copy or updating its deadline.
  void arm(std::int32_t dst, std::uint64_t seq, double deadline) {
    due.push({deadline, dst, seq});
  }

  /// Pop stale heap entries so the top (if any) is a live deadline.
  void prune_due() {
    while (!due.empty()) {
      const DueEntry& e = due.top();
      const auto it = pending.find({e.dst, e.seq});
      if (it == pending.end() || it->second.deadline != e.deadline) {
        due.pop();
        continue;
      }
      break;
    }
  }

  /// Earliest retransmit deadline, or +inf when nothing is pending.
  /// Backends that track deadlines with their own timers (SimMachine's
  /// DES events) never call arm(), so the heap stays empty and this
  /// returns kNever for them.
  [[nodiscard]] double next_deadline() {
    prune_due();
    return due.empty() ? kNever : due.top().deadline;
  }

  /// Drop every unacked copy headed to `dst` (the PE was declared
  /// failed; retrying a dead peer only generates noise). Heap entries
  /// go stale and fall out on the next prune.
  void abandon(std::int32_t dst) {
    auto it = pending.lower_bound({dst, 0});
    while (it != pending.end() && it->first.first == dst) {
      it = pending.erase(it);
    }
  }

  static constexpr double kNever = 1.0e300;
};

/// Receiver-side dedup state for one PE (keyed by source).
struct ReceiverWindow {
  std::map<std::int32_t, SeqTracker> from;

  bool first_delivery(std::int32_t src, std::uint64_t seq) {
    return from[src].first_delivery(seq);
  }
};

}  // namespace cx::ft
