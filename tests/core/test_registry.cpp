// The append-only id tables behind the entry-method, factory and
// combiner registries: lock-free reads racing with appends, stable
// addresses, and unknown ids.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/charm.hpp"
#include "util/id_table.hpp"

namespace {

TEST(IdTable, ReadersRaceWritersAcrossChunkBoundaries) {
  // Small chunks, so the writers cross many chunk boundaries while the
  // readers look up every early id and the newest one published.
  using Table = cxu::IdTable<std::uint64_t, 4, 1024>;
  Table table;
  constexpr std::uint64_t kWriters = 2;
  constexpr std::uint64_t kReaders = 4;
  constexpr std::uint64_t kPerWriter = 1000;
  constexpr std::uint64_t kEarly = 8;
  // Writer w (from 1) appends w << 32 | i for i = 0, 1, ...; the early ids
  // hold 0..7, and their addresses must never change.
  std::vector<const std::uint64_t*> early;
  for (std::uint64_t v = 0; v < kEarly; ++v) {
    early.push_back(&table.at(table.add(v)));
  }
  auto plausible = [&](std::uint64_t v) {
    const std::uint64_t w = v >> 32;
    return w == 0 ? v < kEarly
                  : (w <= kWriters && (v & 0xffffffffu) < kPerWriter);
  };
  std::atomic<bool> writing{true};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> writers;
  std::vector<std::thread> readers;
  for (std::uint64_t w = 1; w <= kWriters; ++w) {
    writers.emplace_back([&table, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) table.add((w << 32) | i);
    });
  }
  for (std::uint64_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      do {
        for (std::uint32_t id = 0; id < kEarly; ++id) {
          if (table.find(id) != early[id] || *early[id] != id) bad++;
        }
        const auto newest = static_cast<std::uint32_t>(table.size() - 1);
        const std::uint64_t* p = table.find(newest);
        if (p == nullptr || !plausible(*p)) bad++;
      } while (writing.load());
    });
  }
  for (auto& t : writers) t.join();
  writing.store(false);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
  const std::uint64_t total = kEarly + kWriters * kPerWriter;
  ASSERT_EQ(table.size(), total);
  // Each writer's values appear in its own append order.
  std::vector<std::uint64_t> next(kWriters + 1, 0);
  for (std::uint32_t id = kEarly; id < total; ++id) {
    ASSERT_NE(table.find(id), nullptr);
    const std::uint64_t v = table.at(id);
    const std::uint64_t w = v >> 32;
    ASSERT_TRUE(w >= 1 && w <= kWriters) << v;
    EXPECT_EQ(v & 0xffffffffu, next[w]++);
  }
  for (std::uint32_t id = 0; id < kEarly; ++id) {
    EXPECT_EQ(table.find(id), early[id]);
  }
  EXPECT_EQ(table.find(static_cast<std::uint32_t>(total)), nullptr);
  EXPECT_EQ(table.find(0xFFFFFF00u), nullptr);
  EXPECT_THROW((void)table.at(0xFFFFFF00u), std::out_of_range);
}

TEST(IdTable, FullTableThrows) {
  cxu::IdTable<int, 2, 2> table;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(table.add(i), static_cast<std::uint32_t>(i));
  }
  EXPECT_THROW(table.add(4), std::length_error);
  EXPECT_EQ(table.size(), 4u);
}

struct Probe : cx::Chare {
  void poke() {}
};

TEST(Registry, UnknownIdsThrowOrFindNothing) {
  auto& reg = cx::Registry::instance();
  const cx::EpId ep = cx::ep_id<&Probe::poke>();
  EXPECT_EQ(reg.find_ep(ep), &reg.ep(ep));
  EXPECT_EQ(reg.find_ep(0xFFFFFF00u), nullptr);
  EXPECT_THROW((void)reg.ep(0xFFFFFF00u), std::out_of_range);
  const cx::FactoryId f = cx::factory_id<Probe>();
  EXPECT_EQ(reg.find_factory(f), &reg.factory(f));
  EXPECT_EQ(reg.find_factory(0xFFFFFF00u), nullptr);
  EXPECT_THROW((void)reg.factory(0xFFFFFF00u), std::out_of_range);
  auto& comb = cx::CombinerRegistry::instance();
  const cx::CombineId sum = cx::reducer::sum<int>();
  EXPECT_EQ(comb.find(sum), &comb.get(sum));
  EXPECT_EQ(comb.find(0xFFFFFF00u), nullptr);
  EXPECT_THROW((void)comb.get(0xFFFFFF00u), std::out_of_range);
}

}  // namespace
