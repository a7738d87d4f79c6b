/**
 * @file
 * Fixed-capacity double-ended queue over a power-of-two array, the
 * storage of the core's pipeline queues (ROB, fetch queue, LQ, SQ)
 * and of the physical-register free list.
 */

#ifndef SPT_COMMON_RING_H
#define SPT_COMMON_RING_H

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace spt {

/**
 * Push at the back, pop at either end, index from the front: all
 * O(1), and no allocation after construction. The capacity is fixed
 * when the ring is built, rounded up to a power of two so a logical
 * position maps to its slot with one mask; pushing into a full ring
 * is a simulator bug (SPT_ASSERT), never a reallocation. A pop
 * assigns T{} to the vacated slot, so a pooled handle the ring held
 * is released at once. Iterators are random access (std::lower_bound
 * over a seq-ordered ring is a binary search) and stay valid across
 * pushes and pops that do not remove their element.
 */
template <typename T>
class Ring
{
  public:
    class const_iterator
    {
      public:
        using iterator_category = std::random_access_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T *;
        using reference = const T &;

        const_iterator() = default;

        reference operator*() const { return ring_->slot(pos_); }
        pointer operator->() const { return &ring_->slot(pos_); }
        reference
        operator[](difference_type n) const
        {
            return ring_->slot(pos_ + static_cast<uint64_t>(n));
        }

        const_iterator &
        operator++()
        {
            ++pos_;
            return *this;
        }
        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++pos_;
            return old;
        }
        const_iterator &
        operator--()
        {
            --pos_;
            return *this;
        }
        const_iterator
        operator--(int)
        {
            const_iterator old = *this;
            --pos_;
            return old;
        }
        const_iterator &
        operator+=(difference_type n)
        {
            pos_ += static_cast<uint64_t>(n);
            return *this;
        }
        const_iterator &
        operator-=(difference_type n)
        {
            pos_ -= static_cast<uint64_t>(n);
            return *this;
        }
        friend const_iterator
        operator+(const_iterator it, difference_type n)
        {
            return it += n;
        }
        friend const_iterator
        operator+(difference_type n, const_iterator it)
        {
            return it += n;
        }
        friend const_iterator
        operator-(const_iterator it, difference_type n)
        {
            return it -= n;
        }
        friend difference_type
        operator-(const const_iterator &a, const const_iterator &b)
        {
            return static_cast<difference_type>(a.pos_ - b.pos_);
        }
        friend bool
        operator==(const const_iterator &a, const const_iterator &b)
        {
            return a.pos_ == b.pos_;
        }
        friend std::strong_ordering
        operator<=>(const const_iterator &a, const const_iterator &b)
        {
            return a.pos_ <=> b.pos_;
        }

      private:
        friend class Ring;
        const_iterator(const Ring *ring, uint64_t pos)
            : ring_(ring), pos_(pos)
        {
        }

        const Ring *ring_ = nullptr;
        uint64_t pos_ = 0; ///< logical position, not offset from head
    };

    /** Room for at least @p min_capacity elements. */
    explicit Ring(std::size_t min_capacity)
    {
        std::size_t cap = 1;
        while (cap < min_capacity)
            cap <<= 1;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    std::size_t size() const { return tail_ - head_; }
    bool empty() const { return head_ == tail_; }
    std::size_t capacity() const { return slots_.size(); }

    T &front() { return slot(head_); }
    const T &front() const { return slot(head_); }
    T &back() { return slot(tail_ - 1); }
    const T &back() const { return slot(tail_ - 1); }
    /** The element @p i places behind the front. */
    T &operator[](std::size_t i) { return slot(head_ + i); }
    const T &operator[](std::size_t i) const { return slot(head_ + i); }

    const_iterator begin() const { return {this, head_}; }
    const_iterator end() const { return {this, tail_}; }

    void
    push_back(T value)
    {
        SPT_ASSERT(size() < slots_.size(),
                   "ring overflow: all " << slots_.size()
                                         << " slots in use");
        slot(tail_++) = std::move(value);
    }
    void
    pop_front()
    {
        SPT_ASSERT(!empty(), "pop from an empty ring");
        slot(head_++) = T{};
    }
    void
    pop_back()
    {
        SPT_ASSERT(!empty(), "pop from an empty ring");
        slot(--tail_) = T{};
    }
    void
    clear()
    {
        while (!empty())
            pop_back();
    }

  private:
    T &slot(uint64_t pos) { return slots_[pos & mask_]; }
    const T &slot(uint64_t pos) const { return slots_[pos & mask_]; }

    std::vector<T> slots_;
    uint64_t mask_ = 0;
    /** Logical positions: [head_, tail_) are occupied. They only grow
     *  (pop_back excepted), so 64 bits never wrap in practice. */
    uint64_t head_ = 0;
    uint64_t tail_ = 0;
};

} // namespace spt

#endif // SPT_COMMON_RING_H
