/**
 * @file
 * Byte-identity goldens for the parallel Awari program: simulated run
 * time (as a hex float), checksum, verification and the intra/inter
 * traffic counters of both variants at six points on 4x8, seed 1.
 * The retrograde analysis's data structures are host-side detail; any
 * change to them must leave every one of these numbers untouched.
 */

#include "apps/awari/awari.h"

#include <gtest/gtest.h>

#include <string>

#include "core/scenario.h"
#include "net/wan_shape.h"

namespace tli::apps::awari {
namespace {

core::ScenarioBuilder
base()
{
    return core::ScenarioBuilder().clusters(4).procsPerCluster(8).seed(1);
}

core::Scenario
scenarioFor(const std::string &point)
{
    if (point == "myrinet")
        return base().allMyrinet().build();
    if (point == "bw6_3_lat0_5")
        return base().wanBandwidth(6.3).wanLatency(0.5).build();
    if (point == "bw0_03_lat300")
        return base().wanBandwidth(0.03).wanLatency(300).build();
    if (point == "star_bw1_lat10")
        return base()
            .wanBandwidth(1.0)
            .wanLatency(10)
            .wanTopology(net::WanShape::star())
            .build();
    if (point == "torus_bw0_3_lat30")
        return base()
            .wanBandwidth(0.3)
            .wanLatency(30)
            .wanTopology(net::WanShape::torus({2, 2}))
            .build();
    // 5% wide-area loss engages panda::Reliable.
    EXPECT_EQ(point, "reliable_loss5");
    return base().wanBandwidth(6.3).wanLatency(0.5).wanLoss(0.05).build();
}

struct Golden
{
    const char *point;
    bool optimized;
    double runTime;
    double checksum;
    bool verified;
    std::uint64_t intraMessages;
    std::uint64_t intraBytes;
    std::uint64_t interMessages;
    std::uint64_t interBytes;
};

void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.point << (g.optimized ? "/opt" : "/unopt");
}

class AwariGolden : public ::testing::TestWithParam<Golden>
{
};

TEST_P(AwariGolden, ResultsAreByteIdentical)
{
    const Golden &g = GetParam();
    const core::RunResult r = run(scenarioFor(g.point), g.optimized);
    EXPECT_EQ(r.runTime, g.runTime);
    EXPECT_EQ(r.checksum, g.checksum);
    EXPECT_EQ(r.verified, g.verified);
    EXPECT_EQ(r.traffic.intra.messages, g.intraMessages);
    EXPECT_EQ(r.traffic.intra.bytes, g.intraBytes);
    EXPECT_EQ(r.traffic.inter.messages, g.interMessages);
    EXPECT_EQ(r.traffic.inter.bytes, g.interBytes);
}

// Captured before Awari's state moved into flat tables; a mismatch
// means the program's behaviour changed, not just its layout.
INSTANTIATE_TEST_SUITE_P(
    SixPoints, AwariGolden,
    ::testing::Values(
        Golden{"myrinet", false, 0x1.9711223aaabe1p+0, 0x1.271dp+20,
               true, 70414u, 6377168u, 27977u, 2651152u},
        Golden{"myrinet", true, 0x1.97e71d41a2c27p+0, 0x1.271dp+20,
               true, 62828u, 9626704u, 7642u, 2872976u},
        Golden{"bw6_3_lat0_5", false, 0x1.62cc092f89548p+1,
               0x1.271dp+20, true, 71149u, 6408096u, 28129u,
               2656688u},
        Golden{"bw6_3_lat0_5", true, 0x1.0a4ca50d1f4edp+1,
               0x1.271dp+20, true, 62598u, 9621312u, 7619u,
               2872432u},
        Golden{"bw0_03_lat300", false, 0x1.3fb6e6ce1ff49p+7,
               0x1.271dp+20, true, 72391u, 6450016u, 28534u,
               2669840u},
        Golden{"bw0_03_lat300", true, 0x1.422d52d2ab27bp+7,
               0x1.271dp+20, true, 63844u, 9665536u, 7752u,
               2877072u},
        Golden{"star_bw1_lat10", false, 0x1.f5b8dafa75daap+2,
               0x1.271dp+20, true, 71573u, 6421664u, 28307u,
               2662384u},
        Golden{"star_bw1_lat10", true, 0x1.c66f3256acbe4p+2,
               0x1.271dp+20, true, 63848u, 9663488u, 7794u,
               2878224u},
        Golden{"torus_bw0_3_lat30", false, 0x1.442d37e5d4b2bp+4,
               0x1.271dp+20, true, 72592u, 6456448u, 28655u,
               2673712u},
        Golden{"torus_bw0_3_lat30", true, 0x1.3029f86d9bd56p+4,
               0x1.271dp+20, true, 64058u, 9672384u, 7797u,
               2878512u},
        Golden{"reliable_loss5", false, 0x1.2ce54df7334ebp+3,
               0x1.271dp+20, true, 559587u, 41599220u, 265404u,
               19726236u},
        Golden{"reliable_loss5", true, 0x1.373ca597d1869p+1,
               0x1.271dp+20, true, 123122u, 27281236u, 37175u,
               11428528u}),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return std::string(info.param.point) +
               (info.param.optimized ? "_opt" : "_unopt");
    });

} // namespace
} // namespace tli::apps::awari
