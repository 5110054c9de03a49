/**
 * @file
 * Tests for the Awari open-addressed key table.
 */

#include "apps/awari/key_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "apps/awari/game.h"

namespace tli::apps::awari {
namespace {

TEST(AwariKeyTable, KeyZeroIsAnOrdinaryKey)
{
    // Key 0 is the empty board with side 0 to move.
    KeyTable<int> t;
    EXPECT_EQ(t.find(0), nullptr);
    auto [v, inserted] = t.insert(0, 7);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*v, 7);
    ASSERT_NE(t.find(0), nullptr);
    EXPECT_EQ(*t.find(0), 7);
    EXPECT_EQ(t.size(), 1u);
}

TEST(AwariKeyTable, MissingKeyIsNotFound)
{
    KeyTable<int> t;
    EXPECT_EQ(t.find(42), nullptr); // before any allocation
    t.insert(1, 1);
    t.insert(2, 2);
    EXPECT_EQ(t.find(42), nullptr);
    EXPECT_EQ(t.find((1ull << 48) | 1), nullptr);
}

TEST(AwariKeyTable, InsertKeepsTheFirstValue)
{
    KeyTable<int> t;
    t.insert(5, 1);
    auto [v, inserted] = t.insert(5, 2);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*v, 1);
    *v = 3;
    EXPECT_EQ(*t.find(5), 3);
    EXPECT_EQ(t.size(), 1u);
}

TEST(AwariKeyTable, GrowsPastSeveralDoublings)
{
    KeyTable<std::int32_t> t;
    t.insert(0, -1);
    const std::size_t first = t.capacity();
    // 2730 keys: at least eight doublings past the first allocation.
    std::vector<std::uint64_t> keys = enumerateStage(4);
    for (std::size_t i = 0; i < keys.size(); ++i)
        t.insert(keys[i], static_cast<std::int32_t>(i));
    EXPECT_EQ(t.size(), keys.size() + 1);
    EXPECT_GE(t.capacity(), first * 256);
    EXPECT_GE(t.capacity(), 2 * t.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NE(t.find(keys[i]), nullptr);
        EXPECT_EQ(*t.find(keys[i]), static_cast<std::int32_t>(i));
    }
    EXPECT_EQ(*t.find(0), -1);
    // Eight stones in pit 11: not a stage-4 key.
    EXPECT_EQ(t.find(keys.front() | (1ull << 47)), nullptr);
}

TEST(AwariKeyTable, ReserveAvoidsGrowth)
{
    KeyTable<int> t(1000);
    const std::size_t capacity = t.capacity();
    EXPECT_GE(capacity, 2000u);
    for (int i = 0; i < 1000; ++i)
        t.insert(static_cast<std::uint64_t>(i), i);
    EXPECT_EQ(t.capacity(), capacity);
}

TEST(AwariKeyTable, CollidingKeysProbeToDistinctSlots)
{
    // Keys sharing one home slot at the table's final capacity: they
    // must all be stored and found, and a colliding absent key must
    // still miss.
    KeyTable<int> t(8);
    const std::size_t mask = t.capacity() - 1;
    std::map<std::size_t, std::vector<std::uint64_t>> bySlot;
    std::vector<std::uint64_t> colliding;
    for (std::uint64_t k = 0; colliding.size() < 6; ++k) {
        auto &same = bySlot[KeyTable<int>::hash(k) & mask];
        same.push_back(k);
        if (same.size() == 6)
            colliding = same;
    }
    const std::uint64_t absent = [&] {
        for (std::uint64_t k = colliding.back() + 1;; ++k) {
            if ((KeyTable<int>::hash(k) & mask) ==
                (KeyTable<int>::hash(colliding[0]) & mask))
                return k;
        }
    }();
    for (std::size_t i = 0; i + 1 < colliding.size(); ++i)
        t.insert(colliding[i], static_cast<int>(i));
    ASSERT_EQ(t.capacity(), mask + 1) << "the table must not grow";
    for (std::size_t i = 0; i + 1 < colliding.size(); ++i) {
        ASSERT_NE(t.find(colliding[i]), nullptr);
        EXPECT_EQ(*t.find(colliding[i]), static_cast<int>(i));
    }
    EXPECT_EQ(t.find(colliding.back()), nullptr);
    EXPECT_EQ(t.find(absent), nullptr);
}

} // namespace
} // namespace tli::apps::awari
