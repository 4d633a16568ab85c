/**
 * @file
 * The run pool's contract: every index runs once, a stopping run makes
 * only higher indices moot, and the lowest throwing index's exception is
 * the one rethrown, at any job count.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "workloads/run_pool.hh"

using skipit::workloads::forEachRun;

TEST(RunPool, RunsEveryIndexExactlyOnce)
{
    for (const unsigned jobs : {0u, 1u, 4u}) {
        std::vector<int> hits(100, 0);
        forEachRun(hits.size(), jobs, [&](std::size_t i) {
            ++hits[i];
            return true;
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i], 1) << "index " << i << ", jobs " << jobs;
    }
    forEachRun(0, 4, [](std::size_t) -> bool {
        ADD_FAILURE() << "ran an index of an empty pool";
        return true;
    });
}

TEST(RunPool, StoppingRunMakesOnlyHigherIndicesMoot)
{
    for (const unsigned jobs : {1u, 4u}) {
        std::vector<char> ran(200, 0);
        forEachRun(ran.size(), jobs, [&](std::size_t i) {
            ran[i] = 1;
            return i != 20;
        });
        for (std::size_t i = 0; i <= 20; ++i)
            EXPECT_TRUE(ran[i]) << "index " << i << ", jobs " << jobs;
        if (jobs == 1) {
            for (std::size_t i = 21; i < ran.size(); ++i)
                EXPECT_FALSE(ran[i]) << "index " << i;
        }
    }
}

TEST(RunPool, RethrowsTheLowestThrowingIndex)
{
    for (const unsigned jobs : {1u, 4u}) {
        try {
            forEachRun(50, jobs, [](std::size_t i) -> bool {
                if (i == 7 || i == 30)
                    throw std::runtime_error(std::to_string(i));
                return true;
            });
            ADD_FAILURE() << "no exception at jobs " << jobs;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "7") << "jobs " << jobs;
        }
    }
}
