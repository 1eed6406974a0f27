#pragma once
// cx::wire envelope builder — single-pass message construction.
//
// The legacy path (PR 0-2) built every cross-PE message in three heap
// steps: pup::to_bytes(header) allocated a vector, body bytes were
// insert()-appended into it (often reallocating), and the result moved
// into a fresh Message. The builder collapses that to one pass: a
// pup::Sizer totals header + body, one pooled Message is allocated,
// its Buffer sized once (inline when it fits), and a pup::Packer
// writes header then body directly into place. The packed bytes are
// identical to the legacy to_bytes+insert layout — only the number of
// allocations and copies changes.
//
// Headers are taken by const reference; Sizer and Packer never mutate
// (Er::bytes only reads in those modes), so the const_cast inside is
// sound and fixes the old header_bytes(H h) by-value copies.

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "machine/message.hpp"
#include "pup/pup.hpp"
#include "trace/trace.hpp"
#include "wire/buffer.hpp"

namespace cx::wire {

namespace detail {

inline void note_envelope(std::size_t bytes, bool inline_payload) noexcept {
  auto& w = cx::trace::detail::wire();
  w.envelopes.fetch_add(1, std::memory_order_relaxed);
  w.bytes_packed.fetch_add(bytes, std::memory_order_relaxed);
  if (inline_payload) {
    w.sbo_payloads.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Thread-local bypass flag consumed by the builders (see ScopedNoAgg).
inline bool& tls_no_agg() noexcept {
  thread_local bool v = false;
  return v;
}

inline void apply_send_flags(cxm::Message& msg) noexcept {
  if (tls_no_agg()) msg.wire_flags |= cxm::kWireNoAgg;
}

}  // namespace detail

/// RAII guard: every message built on this thread while the guard lives
/// is marked kWireNoAgg and bypasses sender-side aggregation (--wire-agg).
/// For freshness-sensitive application traffic — e.g. the task pool's
/// worker heartbeats, which must not age inside an open batch while the
/// liveness layer counts silence. Nestable.
class ScopedNoAgg {
 public:
  ScopedNoAgg() noexcept : prev_(detail::tls_no_agg()) {
    detail::tls_no_agg() = true;
  }
  ~ScopedNoAgg() { detail::tls_no_agg() = prev_; }
  ScopedNoAgg(const ScopedNoAgg&) = delete;
  ScopedNoAgg& operator=(const ScopedNoAgg&) = delete;

 private:
  bool prev_;
};

namespace detail {

template <typename H>
std::size_t sized(const H& h) {
  pup::Sizer s;
  s | const_cast<H&>(h);
  return s.size();
}

}  // namespace detail

/// Header-only message: one Message allocation, one pack pass.
template <typename H>
cxm::MessagePtr make_msg(std::uint32_t handler, int dst, const H& h) {
  auto msg = std::make_unique<cxm::Message>();
  msg->handler = handler;
  msg->dst_pe = dst;
  msg->data.resize_discard(detail::sized(h));
  pup::Packer pk(msg->data.data(), msg->data.size());
  pk | const_cast<H&>(h);
  detail::note_envelope(msg->data.size(), msg->data.is_inline());
  detail::apply_send_flags(*msg);
  return msg;
}

/// Header + raw body bytes, packed back-to-back in one pass.
template <typename H>
cxm::MessagePtr make_msg(std::uint32_t handler, int dst, const H& h,
                         const std::byte* body, std::size_t body_len) {
  auto msg = std::make_unique<cxm::Message>();
  msg->handler = handler;
  msg->dst_pe = dst;
  const std::size_t hsize = detail::sized(h);
  msg->data.resize_discard(hsize + body_len);
  pup::Packer pk(msg->data.data(), msg->data.size());
  pk | const_cast<H&>(h);
  if (body_len > 0) pk.bytes(const_cast<std::byte*>(body), body_len);
  detail::note_envelope(msg->data.size(), msg->data.is_inline());
  detail::apply_send_flags(*msg);
  return msg;
}

template <typename H>
cxm::MessagePtr make_msg(std::uint32_t handler, int dst, const H& h,
                         const std::vector<std::byte>& body) {
  return make_msg(handler, dst, h, body.data(), body.size());
}

/// Header + pup-traversed body: `traverse(p)` is invoked twice, once
/// with a Sizer and once with a Packer, so argument tuples (including
/// cpy::Value ndarrays, whose pup is one contiguous bytes() call) pack
/// straight into the wire buffer with no intermediate vector.
template <typename H, typename F>
cxm::MessagePtr make_msg_pup(std::uint32_t handler, int dst, const H& h,
                             F&& traverse) {
  auto msg = std::make_unique<cxm::Message>();
  msg->handler = handler;
  msg->dst_pe = dst;
  pup::Sizer s;
  s | const_cast<H&>(h);
  traverse(static_cast<pup::Er&>(s));
  msg->data.resize_discard(s.size());
  pup::Packer pk(msg->data.data(), msg->data.size());
  pk | const_cast<H&>(h);
  traverse(static_cast<pup::Er&>(pk));
  detail::note_envelope(msg->data.size(), msg->data.is_inline());
  detail::apply_send_flags(*msg);
  return msg;
}

/// Body-only message (no header struct) from a pup traversal.
template <typename F>
cxm::MessagePtr make_msg_body(std::uint32_t handler, int dst, F&& traverse) {
  auto msg = std::make_unique<cxm::Message>();
  msg->handler = handler;
  msg->dst_pe = dst;
  pup::Sizer s;
  traverse(static_cast<pup::Er&>(s));
  msg->data.resize_discard(s.size());
  pup::Packer pk(msg->data.data(), msg->data.size());
  traverse(static_cast<pup::Er&>(pk));
  detail::note_envelope(msg->data.size(), msg->data.is_inline());
  detail::apply_send_flags(*msg);
  return msg;
}

/// Copy an already-packed payload into a fresh message — tree forwards
/// of broadcast/create payloads and ft retransmit copies. The Buffer
/// copy lands in a pooled block (or inline).
inline cxm::MessagePtr clone_payload(std::uint32_t handler, int dst,
                                     const Buffer& payload) {
  auto msg = std::make_unique<cxm::Message>();
  msg->handler = handler;
  msg->dst_pe = dst;
  msg->data = payload;
  detail::note_envelope(msg->data.size(), msg->data.is_inline());
  detail::apply_send_flags(*msg);
  return msg;
}

/// Unpack a header from the front of a payload; `*body_off` (optional)
/// receives the offset where the body starts.
template <typename H, typename Bytes>
H read_header(const Bytes& payload, std::size_t* body_off = nullptr) {
  pup::Unpacker u(payload.data(), payload.size());
  H h{};
  u | h;
  if (body_off != nullptr) *body_off = u.offset();
  return h;
}

}  // namespace cx::wire
