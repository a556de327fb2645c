/**
 * @file
 * A double-ended queue in one contiguous ring that keeps its capacity.
 */

#ifndef CRNET_SIM_RING_DEQUE_HH
#define CRNET_SIM_RING_DEQUE_HH

#include <cstddef>
#include <memory>
#include <utility>

#include "src/core/annotations.hh"

namespace crnet {

/**
 * A double-ended queue over one ring buffer of power-of-two capacity,
 * indexed from the front. std::deque frees and re-allocates blocks as
 * its ends move; this allocates only when it outgrows its capacity,
 * and clear() keeps the capacity. A source queue whose retries push to
 * the front therefore allocates only at a new high-water mark.
 *
 * The pushes are pushBack()/pushFront(), not the std names, so the
 * static checker (tools/crnet_analyze.py) resolves a call to them by
 * name to this class, whose only allocation is the annotated grow().
 */
template <typename T>
class RingDeque
{
  public:
    using value_type = T;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T& operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T& operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    void
    pushBack(const T& v)
    {
        if (size_ == cap_)
            grow();
        buf_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    /** pushBack() under the name a snapshot reader's seq() calls. */
    void push_back(const T& v) { pushBack(v); }

    void
    pushFront(const T& v)
    {
        if (size_ == cap_)
            grow();
        head_ = (head_ + cap_ - 1) & mask_;
        buf_[head_] = v;
        ++size_;
    }

    /** Remove element `i`, shifting the shorter side over it. */
    void
    erase(std::size_t i)
    {
        if (i < size_ - 1 - i) {
            for (std::size_t j = i; j > 0; --j)
                (*this)[j] = std::move((*this)[j - 1]);
            head_ = (head_ + 1) & mask_;
        } else {
            for (std::size_t j = i; j + 1 < size_; ++j)
                (*this)[j] = std::move((*this)[j + 1]);
        }
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    CRNET_ALLOW("alloc",
                "doubles the ring only past its high-water mark and "
                "never shrinks it (tests/test_alloc_steady.cc bounds "
                "what live traffic allocates)")
    void
    grow()
    {
        const std::size_t cap = cap_ == 0 ? 4 : 2 * cap_;
        auto buf = std::make_unique<T[]>(cap);
        for (std::size_t i = 0; i < size_; ++i)
            buf[i] = std::move((*this)[i]);
        buf_ = std::move(buf);
        cap_ = cap;
        mask_ = cap - 1;
        head_ = 0;
    }

    std::unique_ptr<T[]> buf_;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace crnet

#endif // CRNET_SIM_RING_DEQUE_HH
