/** @file Command-line parsing of the shared bench runner. */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner.h"

namespace oceanstore {
namespace bench {
namespace {

/** Parse @p args (argv[0] supplied) and return the error, if any. */
std::string
parseError(std::vector<std::string> args, RunnerOptions *out = nullptr)
{
    args.insert(args.begin(), "bench_test");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    std::string error;
    RunnerOptions opt = parseRunnerArgs(static_cast<int>(argv.size()),
                                        argv.data(), &error);
    if (out)
        *out = opt;
    return error;
}

TEST(BenchRunnerArgs, DefaultsToBenchMode)
{
    RunnerOptions opt;
    EXPECT_EQ(parseError({}, &opt), "");
    EXPECT_FALSE(opt.smoke);
    EXPECT_EQ(opt.repeats, 5);
    EXPECT_EQ(opt.warmup, 1);
}

TEST(BenchRunnerArgs, ParsesEveryFlag)
{
    RunnerOptions opt;
    EXPECT_EQ(parseError({"--bench", "--repeats", "3", "--warmup", "0",
                          "--json", "out.json", "--filter", "rs_",
                          "--seed", "0x10", "--list"},
                         &opt),
              "");
    EXPECT_EQ(opt.repeats, 3);
    EXPECT_EQ(opt.warmup, 0);
    EXPECT_EQ(opt.jsonPath, "out.json");
    EXPECT_EQ(opt.filter, "rs_");
    EXPECT_EQ(opt.seed, 16u);
    EXPECT_TRUE(opt.list);

    EXPECT_EQ(parseError({"--smoke", "--seed=7"}, &opt), "");
    EXPECT_TRUE(opt.smoke);
    EXPECT_EQ(opt.repeats, 1);
    EXPECT_EQ(opt.warmup, 0);
    EXPECT_EQ(opt.seed, 7u);
}

TEST(BenchRunnerArgs, RejectsUnknownFlags)
{
    EXPECT_NE(parseError({"--reapeats", "2"}), "");
    EXPECT_NE(parseError({"--benchmark_filter=BM_.*"}), "");
    EXPECT_NE(parseError({"positional"}), "");
}

TEST(BenchRunnerArgs, RejectsNonNumericValues)
{
    EXPECT_NE(parseError({"--repeats", "abc"}), "");
    EXPECT_NE(parseError({"--repeats", "3x"}), "");
    EXPECT_NE(parseError({"--warmup", "-1"}), "");
    EXPECT_NE(parseError({"--seed", ""}), "");
    EXPECT_NE(parseError({"--seed=0xzz"}), "");
}

TEST(BenchRunnerArgs, RejectsMissingValue)
{
    EXPECT_NE(parseError({"--json"}), "");
    EXPECT_NE(parseError({"--smoke", "--repeats"}), "");
}

} // namespace
} // namespace bench
} // namespace oceanstore
