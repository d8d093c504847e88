/**
 * @file
 * Ring<T>: a double-ended queue over one power-of-two slot array.
 *
 * The pipeline's age-ordered structures (ROB, front end, load and
 * store queues, store buffer, invocation table) are bounded by Table 4
 * sizes, and each pushes at the young end and pops at one of the two
 * ends. A ring sized once at construction does that with one mask per
 * index and no allocation of its own: the next push assigns over a
 * popped slot's object. An entry that owns buffers (a vector member)
 * still allocates and frees them as it is assigned. Indexing,
 * iteration and equality are in age order (oldest first) whatever slot
 * the head occupies, so a Ring compares, encodes and diffs exactly as a
 * std::deque with the same contents would.
 *
 * A push into a full ring doubles the slot array rather than fail:
 * callers bound their rings themselves (rename stalls on a full ROB),
 * and a decoder filling a default-constructed ring needs the growth.
 */

#ifndef DYNASPAM_COMMON_RING_HH
#define DYNASPAM_COMMON_RING_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace dynaspam
{

template <typename T>
class Ring
{
    /** Forward iterator in age order: a ring and an age position. */
    template <bool Const>
    class Iter
    {
        using RingRef = std::conditional_t<Const, const Ring &, Ring &>;

      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;

        Iter() = default;
        Iter(RingRef r, std::size_t i) : ring(&r), idx(i) {}

        reference operator*() const { return (*ring)[idx]; }
        pointer operator->() const { return &(*ring)[idx]; }
        Iter &operator++() { ++idx; return *this; }
        Iter operator++(int) { Iter old = *this; ++idx; return old; }
        bool operator==(const Iter &other) const { return idx == other.idx; }

      private:
        std::remove_reference_t<RingRef> *ring = nullptr;
        std::size_t idx = 0;
    };

  public:
    using value_type = T;
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    Ring() = default;

    /** A ring that holds @p capacity entries before it grows. */
    explicit Ring(std::size_t capacity) { reserve(capacity); }

    /** A copy holds the same entries; its capacity is its own. */
    Ring(const Ring &other) { *this = other; }
    Ring(Ring &&other) noexcept { *this = std::move(other); }

    /** Copy @p other's entries into this ring's slots, assigning over
     *  the objects already there; the capacity only ever grows. */
    Ring &
    operator=(const Ring &other)
    {
        if (this == &other)
            return *this;
        clear();
        reserve(other.size());
        for (const T &entry : other)
            slots[count++] = entry;
        return *this;
    }

    /** Take @p other's slots; @p other is left empty. */
    Ring &
    operator=(Ring &&other) noexcept
    {
        slots = std::exchange(other.slots, {});
        mask = std::exchange(other.mask, 0);
        head = std::exchange(other.head, 0);
        count = std::exchange(other.count, 0);
        return *this;
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    std::size_t capacity() const { return slots.size(); }

    /** The entry @p i places from the oldest. */
    T &operator[](std::size_t i) { return slots[(head + i) & mask]; }
    const T &
    operator[](std::size_t i) const
    {
        return slots[(head + i) & mask];
    }

    T &front() { return slots[head]; }
    const T &front() const { return slots[head]; }
    T &back() { return (*this)[count - 1]; }
    const T &back() const { return (*this)[count - 1]; }

    iterator begin() { return {*this, 0}; }
    iterator end() { return {*this, count}; }
    const_iterator begin() const { return {*this, 0}; }
    const_iterator end() const { return {*this, count}; }

    /** Make room for @p n entries: the slot array becomes the next
     *  power of two at or above @p n, entries keep their age order. */
    void
    reserve(std::size_t n)
    {
        if (n > slots.size())
            grow(n);
    }

    void
    push_back(const T &value)
    {
        reserve(count + 1);
        (*this)[count++] = value;
    }

    void
    push_back(T &&value)
    {
        reserve(count + 1);
        (*this)[count++] = std::move(value);
    }

    /** Append a value-initialized entry, built in its slot. */
    T &
    emplace_back()
    {
        reserve(count + 1);
        T &slot = (*this)[count++];
        slot = T{};
        return slot;
    }

    void
    pop_front()
    {
        head = (head + 1) & mask;
        count--;
    }

    void pop_back() { count--; }

    /** Remove the entry @p i places from the oldest: younger entries
     *  close the gap, so removing either end is O(1). */
    void
    erase(std::size_t i)
    {
        if (i == 0) {
            pop_front();
            return;
        }
        for (; i + 1 < count; i++)
            (*this)[i] = std::move((*this)[i + 1]);
        count--;
    }

    /** Drop every entry; the slot array is kept. */
    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** Truncate to, or extend with value-initialized entries to, @p n. */
    void
    resize(std::size_t n)
    {
        reserve(n);
        for (std::size_t i = count; i < n; i++)
            (*this)[i] = T{};
        count = n;
    }

    /** Equal when the age-ordered contents are, whatever the head. */
    friend bool
    operator==(const Ring &a, const Ring &b)
    {
        return a.size() == b.size() &&
               std::equal(a.begin(), a.end(), b.begin());
    }

  private:
    /** The slow half of reserve(), kept out of the push fast path. */
    void
    grow(std::size_t n)
    {
        std::vector<T> grown(std::bit_ceil(n));
        for (std::size_t i = 0; i < count; i++)
            grown[i] = std::move((*this)[i]);
        slots = std::move(grown);
        mask = slots.size() - 1;
        head = 0;
    }

    std::vector<T> slots;   ///< size() is zero or a power of two
    std::size_t mask = 0;   ///< slots.size() - 1
    std::size_t head = 0;   ///< slot of the oldest entry
    std::size_t count = 0;
};

} // namespace dynaspam

#endif // DYNASPAM_COMMON_RING_HH
