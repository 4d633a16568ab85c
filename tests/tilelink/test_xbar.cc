/**
 * @file
 * Unit tests for the TileLink crossbar: slice-selection bits, A/C/E
 * request routing by line address, D response routing by source id, B
 * routing by port identity, drain determinism and misroute injection.
 */

#include <gtest/gtest.h>

#include "tilelink/xbar.hh"

namespace skipit {
namespace {

/** A crossbar with @p clients links and @p slices slice endpoints,
 *  all registered on one simulator, wire latency 1. */
struct XbarFixture
{
    XbarFixture(unsigned clients, unsigned slices)
        : xbar("xbar", sim, slices)
    {
        for (unsigned c = 0; c < clients; ++c) {
            std::string name = "c";
            name += std::to_string(c);
            name += ".tl";
            links.push_back(std::make_unique<TLLink>(sim, 1, name));
            xbar.connectClient(static_cast<AgentId>(c), *links.back());
        }
        sim.add(xbar);
    }

    Simulator sim;
    TLXbar xbar;
    std::vector<std::unique_ptr<TLLink>> links;
};

TEST(SliceBits, PowerOfTwoWidths)
{
    EXPECT_EQ(sliceBits(1), 0u);
    EXPECT_EQ(sliceBits(2), 1u);
    EXPECT_EQ(sliceBits(4), 2u);
    EXPECT_EQ(sliceBits(8), 3u);
}

TEST(SliceBits, SliceOfLineUsesBitsAboveLineOffset)
{
    // Consecutive lines stripe across slices; sub-line offsets do not
    // change the home slice.
    for (unsigned i = 0; i < 8; ++i) {
        const Addr line = static_cast<Addr>(i) * line_bytes;
        EXPECT_EQ(sliceOfLine(line, 4), i % 4) << "line " << i;
        EXPECT_EQ(sliceOfLine(line, 2), i % 2) << "line " << i;
        EXPECT_EQ(sliceOfLine(line, 1), 0u) << "line " << i;
    }
}

TEST(TLXbar, RoutesAByLineAddress)
{
    XbarFixture f(1, 4);
    for (unsigned i = 0; i < 4; ++i) {
        AMsg m;
        m.addr = static_cast<Addr>(i) * line_bytes + 8; // off-line offset
        m.source = 0;
        f.links[0]->a.send(m);
    }
    f.sim.run(8); // all four arrive and drain
    for (unsigned s = 0; s < 4; ++s) {
        EXPECT_EQ(f.xbar.routedA(s), 1u) << "slice " << s;
        TLClientPort &p = f.xbar.port(s, 0);
        ASSERT_TRUE(p.aReady()) << "slice " << s;
        EXPECT_EQ(p.aFront().addr, static_cast<Addr>(s) * line_bytes + 8);
        p.aPop();
        EXPECT_FALSE(p.aReady());
    }
    EXPECT_TRUE(f.xbar.idle());
}

TEST(TLXbar, RoutesCAndEByLineAddress)
{
    XbarFixture f(1, 2);
    CMsg c;
    c.op = COp::Release;
    c.addr = line_bytes; // homes to slice 1
    c.source = 0;
    f.links[0]->c.send(c);
    EMsg e;
    e.addr = 0; // homes to slice 0
    e.source = 0;
    f.links[0]->e.send(e);
    f.sim.run(4);
    EXPECT_EQ(f.xbar.routedC(0), 0u);
    EXPECT_EQ(f.xbar.routedC(1), 1u);
    EXPECT_EQ(f.xbar.routedE(0), 1u);
    EXPECT_EQ(f.xbar.routedE(1), 0u);
    ASSERT_TRUE(f.xbar.port(1, 0).cReady());
    EXPECT_EQ(f.xbar.port(1, 0).cPop().addr, Addr(line_bytes));
    ASSERT_TRUE(f.xbar.port(0, 0).eReady());
    EXPECT_EQ(f.xbar.port(0, 0).ePop().addr, Addr(0));
}

TEST(TLXbar, RoutesDResponseBySourceId)
{
    XbarFixture f(2, 2);
    DMsg m;
    m.op = DOp::Grant;
    m.addr = 0x1000;
    m.dest = 1; // must land on client 1's link, from any slice
    f.xbar.port(0, 1).sendD(m, 1);
    f.sim.run(2);
    EXPECT_FALSE(f.links[0]->d.ready());
    ASSERT_TRUE(f.links[1]->d.ready());
    EXPECT_EQ(f.links[1]->d.recv().addr, 0x1000u);
}

TEST(TLXbar, RoutesBProbeByPortIdentity)
{
    XbarFixture f(2, 2);
    BMsg m;
    m.addr = 0x2000;
    // A probe issued through client 0's endpoint reaches client 0 only.
    f.xbar.port(1, 0).sendB(m);
    f.sim.run(2);
    ASSERT_TRUE(f.links[0]->b.ready());
    EXPECT_FALSE(f.links[1]->b.ready());
    EXPECT_EQ(f.links[0]->b.recv().addr, 0x2000u);
}

TEST(TLXbar, DrainPreservesPerClientOrderAcrossContention)
{
    XbarFixture f(2, 2);
    // Both clients target the same slice in the same cycle; each
    // client's own order must survive arbitration.
    for (unsigned k = 0; k < 2; ++k) {
        for (unsigned c = 0; c < 2; ++c) {
            AMsg m;
            m.addr = 2 * k * line_bytes; // always slice 0
            m.source = static_cast<AgentId>(c);
            m.txn = 10 * c + k;
            f.links[c]->a.send(m);
        }
    }
    f.sim.run(8);
    EXPECT_EQ(f.xbar.routedA(0), 4u);
    for (unsigned c = 0; c < 2; ++c) {
        TLClientPort &p = f.xbar.port(0, c);
        for (unsigned k = 0; k < 2; ++k) {
            ASSERT_TRUE(p.aReady()) << "client " << c << " msg " << k;
            EXPECT_EQ(p.aPop().txn, TxnId(10 * c + k));
        }
    }
}

TEST(TLXbar, MisrouteInjectionFlipsExactlyOneRequest)
{
    XbarFixture f(1, 2);
    f.xbar.injectAMisroute();
    AMsg a;
    a.addr = 0; // homes to slice 0, must be delivered to slice 1
    f.links[0]->a.send(a);
    AMsg b;
    b.addr = 0; // the next request routes correctly again
    f.links[0]->a.send(b);
    f.sim.run(8);
    EXPECT_EQ(f.xbar.routedA(1), 1u);
    EXPECT_EQ(f.xbar.routedA(0), 1u);
    ASSERT_TRUE(f.xbar.port(1, 0).aReady());
    EXPECT_EQ(f.xbar.port(1, 0).aPop().addr, Addr(0));
}

} // namespace
} // namespace skipit
