/**
 * @file
 * Unit and property tests for torus and mesh topologies.
 */

#include <gtest/gtest.h>

#include "src/topology/topology.hh"

namespace crnet {
namespace {

TEST(Torus, NeighborsWrapAround)
{
    TorusTopology t(4, 2);
    // Node 3 = (3,0); +x wraps to (0,0) = 0.
    EXPECT_EQ(t.neighbor(3, makePort(0, Direction::Plus)), 0u);
    // Node 0 -x wraps to (3,0) = 3.
    EXPECT_EQ(t.neighbor(0, makePort(0, Direction::Minus)), 3u);
    // Node 0 -y wraps to (0,3) = 12.
    EXPECT_EQ(t.neighbor(0, makePort(1, Direction::Minus)), 12u);
}

TEST(Torus, NeighborSymmetry)
{
    TorusTopology t(5, 2);
    for (NodeId n = 0; n < t.numNodes(); ++n) {
        for (PortId p = 0; p < t.numPorts(); ++p) {
            const NodeId nbr = t.neighbor(n, p);
            ASSERT_NE(nbr, kInvalidNode);
            EXPECT_EQ(t.neighbor(nbr, oppositePort(p)), n);
        }
    }
}

TEST(Torus, DistanceUsesShorterWay)
{
    TorusTopology t(8, 2);
    // (0,0) to (7,0): one wrap hop, not 7.
    EXPECT_EQ(t.distance(0, 7), 1u);
    // (0,0) to (4,0): both ways are 4.
    EXPECT_EQ(t.distance(0, 4), 4u);
    // (0,0) to (3,2).
    EXPECT_EQ(t.distance(0, 3 + 2 * 8), 5u);
    EXPECT_EQ(t.distance(5, 5), 0u);
}

TEST(Torus, DimRouteBothWaysMinimalAtHalfway)
{
    TorusTopology t(8, 2);
    const DimRoute r = t.dimRoute(0, 4, 0);
    EXPECT_TRUE(r.plusMinimal);
    EXPECT_TRUE(r.minusMinimal);
    EXPECT_EQ(r.plusHops, 4u);
    EXPECT_EQ(r.minusHops, 4u);
}

TEST(Torus, DimRouteOneWayMinimalOtherwise)
{
    TorusTopology t(8, 2);
    const DimRoute r = t.dimRoute(0, 2, 0);
    EXPECT_TRUE(r.plusMinimal);
    EXPECT_FALSE(r.minusMinimal);
    EXPECT_EQ(r.plusHops, 2u);
    EXPECT_EQ(r.minusHops, 6u);

    const DimRoute r2 = t.dimRoute(0, 6, 0);
    EXPECT_FALSE(r2.plusMinimal);
    EXPECT_TRUE(r2.minusMinimal);
    EXPECT_EQ(r2.minusHops, 2u);
}

TEST(Torus, DatelineCrossings)
{
    TorusTopology t(4, 2);
    // Plus dateline: leaving x == k-1 in +x.
    EXPECT_TRUE(t.crossesDateline(3, makePort(0, Direction::Plus)));
    EXPECT_FALSE(t.crossesDateline(2, makePort(0, Direction::Plus)));
    // Minus dateline: leaving x == 0 in -x.
    EXPECT_TRUE(t.crossesDateline(0, makePort(0, Direction::Minus)));
    EXPECT_FALSE(t.crossesDateline(1, makePort(0, Direction::Minus)));
}

TEST(Torus, Diameter)
{
    EXPECT_EQ(TorusTopology(8, 2).diameter(), 8u);
    EXPECT_EQ(TorusTopology(4, 3).diameter(), 6u);
}

TEST(Mesh, BoundariesHaveNoNeighbors)
{
    MeshTopology m(4, 2);
    EXPECT_EQ(m.neighbor(3, makePort(0, Direction::Plus)),
              kInvalidNode);
    EXPECT_EQ(m.neighbor(0, makePort(0, Direction::Minus)),
              kInvalidNode);
    EXPECT_EQ(m.neighbor(0, makePort(1, Direction::Minus)),
              kInvalidNode);
    EXPECT_EQ(m.neighbor(5, makePort(0, Direction::Plus)), 6u);
}

TEST(Mesh, DistanceIsManhattan)
{
    MeshTopology m(8, 2);
    EXPECT_EQ(m.distance(0, 7), 7u);
    EXPECT_EQ(m.distance(0, 7 + 7 * 8), 14u);
}

TEST(Mesh, NoDatelines)
{
    MeshTopology m(4, 2);
    for (NodeId n = 0; n < m.numNodes(); ++n)
        for (PortId p = 0; p < m.numPorts(); ++p)
            EXPECT_FALSE(m.crossesDateline(n, p));
}

TEST(Mesh, Diameter)
{
    EXPECT_EQ(MeshTopology(8, 2).diameter(), 14u);
}

TEST(Topology, FactoryBuildsConfiguredKind)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Mesh;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    auto t = makeTopology(cfg);
    EXPECT_EQ(t->kind(), TopologyKind::Mesh);
    EXPECT_EQ(t->numNodes(), 16u);
}

TEST(Topology, DistanceSymmetricOnTorus)
{
    TorusTopology t(6, 2);
    for (NodeId a = 0; a < t.numNodes(); a += 5)
        for (NodeId b = 0; b < t.numNodes(); b += 3)
            EXPECT_EQ(t.distance(a, b), t.distance(b, a));
}

TEST(Topology, TriangleInequalityViaNeighbors)
{
    // distance() must drop by exactly 1 along a minimal direction.
    TorusTopology t(5, 2);
    for (NodeId a = 0; a < t.numNodes(); ++a) {
        for (NodeId b = 0; b < t.numNodes(); ++b) {
            if (a == b)
                continue;
            const std::uint32_t d = t.distance(a, b);
            bool improved = false;
            for (std::uint32_t dim = 0; dim < t.dims(); ++dim) {
                const DimRoute r = t.dimRoute(a, b, dim);
                if (r.plusMinimal) {
                    const NodeId next =
                        t.neighbor(a, makePort(dim, Direction::Plus));
                    EXPECT_EQ(t.distance(next, b), d - 1);
                    improved = true;
                }
                if (r.minusMinimal) {
                    const NodeId next =
                        t.neighbor(a, makePort(dim, Direction::Minus));
                    EXPECT_EQ(t.distance(next, b), d - 1);
                    improved = true;
                }
            }
            EXPECT_TRUE(improved);
        }
    }
}

TEST(Topology, TinyRadixRejected)
{
    EXPECT_DEATH(TorusTopology(1, 2), "radix");
}

TEST(Topology, NeighborTableMatchesNeighbor)
{
    for (std::uint32_t k : {2u, 3u, 5u}) {
        for (std::uint32_t n : {1u, 2u, 3u}) {
            const TorusTopology torus(k, n);
            const MeshTopology mesh(k, n);
            for (const Topology* t :
                 {static_cast<const Topology*>(&torus),
                  static_cast<const Topology*>(&mesh)}) {
                const std::vector<NodeId> table = t->neighborTable();
                ASSERT_EQ(table.size(),
                          std::size_t{t->numNodes()} * t->numPorts());
                for (NodeId v = 0; v < t->numNodes(); ++v) {
                    for (PortId p = 0; p < t->numPorts(); ++p) {
                        EXPECT_EQ(table[v * t->numPorts() + p],
                                  t->neighbor(v, p))
                            << "k=" << k << " n=" << n << " node " << v
                            << " port " << p;
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace crnet
