/**
 * @file
 * Unit tests for the flit ring buffer.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/router/buffer.hh"

namespace crnet {
namespace {

Flit
flitWithSeq(std::uint32_t seq)
{
    Flit f;
    f.msg = 1;
    f.seq = seq;
    return f;
}

/** A ring over its own slot array. */
struct Ring
{
    explicit Ring(std::size_t cap) : slots(cap)
    {
        buf.bind(slots.data(), cap);
    }

    std::vector<Flit> slots;
    FlitBuffer buf;
};

TEST(FlitBuffer, FifoOrder)
{
    Ring ring(4);
    FlitBuffer& b = ring.buf;
    for (std::uint32_t i = 0; i < 4; ++i)
        b.push(flitWithSeq(i));
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(b.pop().seq, i);
    EXPECT_TRUE(b.empty());
}

TEST(FlitBuffer, WrapsAroundRepeatedly)
{
    Ring ring(3);
    FlitBuffer& b = ring.buf;
    std::uint32_t next_push = 0, next_pop = 0;
    for (int round = 0; round < 50; ++round) {
        while (!b.full())
            b.push(flitWithSeq(next_push++));
        while (!b.empty())
            EXPECT_EQ(b.pop().seq, next_pop++);
    }
    EXPECT_EQ(next_push, next_pop);
}

TEST(FlitBuffer, CapacityAndCounts)
{
    Ring ring(2);
    FlitBuffer& b = ring.buf;
    EXPECT_EQ(b.capacity(), 2u);
    EXPECT_TRUE(b.empty());
    EXPECT_FALSE(b.full());
    b.push(flitWithSeq(0));
    EXPECT_EQ(b.size(), 1u);
    b.push(flitWithSeq(1));
    EXPECT_TRUE(b.full());
}

TEST(FlitBuffer, OverflowPanics)
{
    Ring ring(1);
    FlitBuffer& b = ring.buf;
    b.push(flitWithSeq(0));
    EXPECT_DEATH(b.push(flitWithSeq(1)), "overflow");
}

TEST(FlitBuffer, UnderflowPanics)
{
    Ring ring(1);
    FlitBuffer& b = ring.buf;
    EXPECT_DEATH(b.pop(), "empty");
    EXPECT_DEATH(b.front(), "empty");
}

TEST(FlitBuffer, PurgeDropsEverything)
{
    Ring ring(4);
    FlitBuffer& b = ring.buf;
    b.push(flitWithSeq(0));
    b.push(flitWithSeq(1));
    EXPECT_EQ(b.purge(), 2u);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.purge(), 0u);
    // Still usable after purge.
    b.push(flitWithSeq(9));
    EXPECT_EQ(b.front().seq, 9u);
}

TEST(FlitBuffer, FrontMutableEditsInPlace)
{
    Ring ring(2);
    FlitBuffer& b = ring.buf;
    b.push(flitWithSeq(0));
    b.frontMutable().misrouteBudget = 3;
    EXPECT_EQ(b.front().misrouteBudget, 3u);
}

TEST(FlitBuffer, ZeroCapacityPanics)
{
    Flit slot;
    FlitBuffer b;
    EXPECT_DEATH(b.bind(&slot, 0), "capacity");
}

} // namespace
} // namespace crnet
