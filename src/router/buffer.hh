/**
 * @file
 * Fixed-capacity flit FIFO used for every virtual-channel buffer.
 *
 * A plain ring over caller-owned slots: wormhole simulation enqueues
 * and dequeues millions of flits, so the buffer never allocates. The
 * owner packs the slots of many buffers into one contiguous array (the
 * router's StatePool, the receiver's ejection slots), and the ring
 * itself is a pointer and three 32-bit indices, so it fits beside the
 * rest of a VC's hot state in one cache line (docs/PERFORMANCE.md,
 * "Router hot path"). Indices wrap by compare-and-subtract, not `%`.
 */

#ifndef CRNET_ROUTER_BUFFER_HH
#define CRNET_ROUTER_BUFFER_HH

#include <cstddef>
#include <cstdint>

#include "src/sim/log.hh"
#include "src/router/flit.hh"

namespace crnet {

/** Bounded FIFO of flits over caller-owned slots. */
class FlitBuffer
{
  public:
    /** Unbound buffer: capacity 0 until `bind()` attaches storage. */
    FlitBuffer() = default;

    /**
     * Attach caller-owned slot storage (`cap` > 0 flits). The slice
     * must outlive the buffer. Only valid on an empty buffer.
     */
    void
    bind(WireFlit* slots, std::size_t cap)
    {
        if (!slots || cap == 0 || cap > UINT32_MAX)
            panic("FlitBuffer needs storage with capacity in [1, 2^32)");
        if (count_ != 0)
            panic("FlitBuffer::bind on a non-empty buffer");
        slots_ = slots;
        cap_ = static_cast<std::uint32_t>(cap);
        head_ = 0;
    }

    std::size_t capacity() const { return cap_; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == cap_; }

    /** Enqueue at the back; panics when full (flow control bug). */
    void
    push(const WireFlit& flit)
    {
        if (full())
            panic("FlitBuffer overflow (msg ", flit.msg, ", seq ",
                  flit.seq, ")");
        slots_[wrap(head_ + count_)] = flit;
        ++count_;
    }

    /** The oldest flit; panics when empty. */
    const WireFlit&
    front() const
    {
        if (empty())
            panic("FlitBuffer::front on empty buffer");
        return slots_[head_];
    }

    /** Mutable access to the oldest flit (header state updates). */
    WireFlit&
    frontMutable()
    {
        if (empty())
            panic("FlitBuffer::frontMutable on empty buffer");
        return slots_[head_];
    }

    /** Remove and return the oldest flit. */
    WireFlit
    pop()
    {
        if (empty())
            panic("FlitBuffer::pop on empty buffer");
        const WireFlit& f = slots_[head_];
        head_ = wrap(head_ + 1);
        --count_;
        return f;
    }

    /**
     * The i-th oldest buffered flit (0 = front); panics out of range.
     * Snapshot serialization walks the queue without disturbing it.
     */
    const WireFlit&
    peek(std::size_t i) const
    {
        if (i >= count_)
            panic("FlitBuffer::peek(", i, ") with ", count_, " buffered");
        return slots_[wrap(head_ + static_cast<std::uint32_t>(i))];
    }

    // The sequence calls StateWriter/StateReader::seq() use (the
    // qualified call keeps the analyzer's by-name call graph exact).
    using value_type = WireFlit;
    const WireFlit& operator[](std::size_t i) const { return peek(i); }
    void clear() { purge(); }
    void push_back(const WireFlit& flit) { FlitBuffer::push(flit); }

    /** Drop all contents (kill-token purge); returns dropped count. */
    std::size_t
    purge()
    {
        const std::size_t dropped = count_;
        count_ = 0;
        head_ = 0;
        return dropped;
    }

  private:
    /** Map [0, 2*cap) onto [0, cap). */
    std::uint32_t
    wrap(std::uint32_t i) const
    {
        return i >= cap_ ? i - cap_ : i;
    }

    WireFlit* slots_ = nullptr;
    std::uint32_t cap_ = 0;
    std::uint32_t head_ = 0;
    std::uint32_t count_ = 0;
};

static_assert(sizeof(FlitBuffer) <= 24,
              "FlitBuffer is part of the router's one-cache-line VC "
              "state (Router::InputVc)");

} // namespace crnet

#endif // CRNET_ROUTER_BUFFER_HH
