/**
 * @file
 * Open-addressed table from a packed Awari position key (game.h's
 * encode()) to a small value, for the retrograde analysis's hot path:
 * one slot array per table, no allocation per key.
 */

#ifndef TWOLAYER_APPS_AWARI_KEY_TABLE_H_
#define TWOLAYER_APPS_AWARI_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.h"

namespace tli::apps::awari {

/**
 * Open-addressed hash map: position key -> V.
 *
 * Linear probing over one power-of-two slot array at <= 1/2 load.
 * Keys are below 2^49, so the all-ones word marks an empty slot and
 * every key (0 included) can be stored. There is no erase and no
 * iteration: values are only ever addressed by key, so the slot
 * layout can never leak into results. A value is updated through
 * the pointer insert() returns. Insertion may move the slots, so
 * pointers from find() and insert() are invalid after the next
 * insert().
 */
template <typename V>
class KeyTable
{
  public:
    /** Never a position key: encode() sets no bit above 48. */
    static constexpr std::uint64_t emptyKey = ~0ull;

    KeyTable() = default;

    /** Pre-size for @p expected keys: no growth until more arrive. */
    explicit KeyTable(std::size_t expected) { reserve(expected); }

    void
    reserve(std::size_t expected)
    {
        std::size_t capacity = minCapacity;
        while (capacity < 2 * expected)
            capacity *= 2;
        if (capacity > slots_.size())
            grow(capacity);
    }

    /** The value stored under @p key, or nullptr. */
    const V *
    find(std::uint64_t key) const
    {
        if (slots_.empty())
            return nullptr;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            const Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == emptyKey)
                return nullptr;
        }
    }

    /**
     * Store (@p key, @p value) unless @p key is present. Returns the
     * stored value (the old one if present) and whether it was
     * inserted, like std::unordered_map::emplace.
     */
    std::pair<V *, bool>
    insert(std::uint64_t key, V value)
    {
        TLI_ASSERT(key != emptyKey, "the empty marker is not a key");
        if (2 * (used_ + 1) > slots_.size())
            grow(slots_.empty() ? minCapacity : slots_.size() * 2);
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            Slot &s = slots_[i];
            if (s.key == key)
                return {&s.value, false};
            if (s.key == emptyKey) {
                s.key = key;
                s.value = std::move(value);
                ++used_;
                return {&s.value, true};
            }
        }
    }

    /** Keys stored. */
    std::size_t size() const { return used_; }

    /** Slots allocated (a power of two, at least twice size()). */
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Home slot hash (murmur3's 64-bit finalizer). Deliberately not
     * ownerOf()'s splitmix: the keys one rank owns share
     * splitmix(key) % ranks, so for a power-of-two rank count their
     * low splitmix bits are equal, and a table indexed by those bits
     * would use one slot in every `ranks`.
     */
    static std::size_t
    hash(std::uint64_t x)
    {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ull;
        return static_cast<std::size_t>(x ^ (x >> 33));
    }

  private:
    struct Slot
    {
        std::uint64_t key = emptyKey;
        V value{};
    };

    static constexpr std::size_t minCapacity = 16;

    void
    grow(std::size_t capacity)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(capacity, Slot{});
        const std::size_t mask = capacity - 1;
        for (Slot &s : old) {
            if (s.key == emptyKey)
                continue;
            std::size_t i = hash(s.key) & mask;
            while (slots_[i].key != emptyKey)
                i = (i + 1) & mask;
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
};

} // namespace tli::apps::awari

#endif // TWOLAYER_APPS_AWARI_KEY_TABLE_H_
