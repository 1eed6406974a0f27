#pragma once
// Replacement global operator new/delete that record the largest single
// request made while a decode is being watched: a hostile element count
// has to be rejected before its container allocates anything for it.
//
// The replacements are ordinary (non-inline) definitions, so include this
// header from exactly one translation unit of a test executable.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>

namespace alloc_watch {
inline std::atomic<bool> g_watch{false};
inline std::atomic<std::size_t> g_largest_request{0};

/// Run `decode`, which must throw std::length_error, and return the
/// largest allocation made on the way. A decode that does not throw
/// returns SIZE_MAX, so any bound on the result fails.
template <typename Fn>
std::size_t largest_request_throwing(Fn&& decode) {
  g_largest_request.store(0);
  g_watch.store(true);
  bool threw = false;
  try {
    decode();
  } catch (const std::length_error&) {
    threw = true;
  }
  g_watch.store(false);
  return threw ? g_largest_request.load() : SIZE_MAX;
}
}  // namespace alloc_watch

void* operator new(std::size_t n) {
  using alloc_watch::g_largest_request;
  if (alloc_watch::g_watch.load(std::memory_order_relaxed)) {
    std::size_t cur = g_largest_request.load(std::memory_order_relaxed);
    while (n > cur && !g_largest_request.compare_exchange_weak(cur, n)) {
    }
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
// GCC pairs free() with the operator new it inlined and warns; both sides
// of every pair here are malloc/free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
