/**
 * @file
 * Bench-harness option tests: bench::Session is the one place the
 * fault-injection spec is read from the environment, and it validates
 * every option it takes before any run starts.
 *
 * - XLVM_INJECT vs --inject: the flag wins, a malformed spec from either
 *   source exits 2 naming that source, and the spec that ran is the one
 *   recorded in the profile provenance.
 * - Numeric flags: in both spellings, anything but plain decimal digits
 *   in range exits 2 naming the flag; valid values reach the report.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"

namespace xlvm {
namespace {

/** A bench::Session built from @p args, as a bench binary would be. */
std::unique_ptr<bench::Session>
harness(std::vector<const char *> args)
{
    args.insert(args.begin(), "test_harness");
    args.push_back("--jobs");
    args.push_back("1");
    return std::make_unique<bench::Session>(
        "test_harness", int(args.size()), const_cast<char **>(args.data()));
}

uint64_t
fired(const driver::RunResult &r, rt::FaultSite site)
{
    return r.faultFired[uint32_t(site)];
}

// ---- fault-injection spec ---------------------------------------------

TEST(HarnessInjectDeathTest, MalformedSpecExitsNamingItsSource)
{
    setenv("XLVM_INJECT", "bogus@@", 1);
    EXPECT_EXIT(harness({}), testing::ExitedWithCode(2),
                "XLVM_INJECT: unknown fault kind 'bogus'");
    unsetenv("XLVM_INJECT");
    EXPECT_EXIT(harness({"--inject", "recorder:0"}),
                testing::ExitedWithCode(2),
                "--inject: bad visit ordinal '0'");
}

TEST(HarnessInject, FlagBeatsEnv)
{
    // The env would fire the recorder on its first visit; the flag's
    // spec arms only the GC hook, at a visit no run reaches.
    setenv("XLVM_INJECT", "recorder:1", 1);
    std::unique_ptr<bench::Session> s =
        harness({"--inject", "gc_hook:1000000000"});
    std::vector<driver::RunResult> res = s->sweep(
        {bench::baseOptions("richards", driver::VmKind::PyPyJit)});
    unsetenv("XLVM_INJECT");
    ASSERT_EQ(res.size(), 1u);
    ASSERT_TRUE(res[0].completed) << res[0].error;
    EXPECT_TRUE(res[0].faultsArmed);
    EXPECT_EQ(fired(res[0], rt::FaultSite::kRecorder), 0u);
    EXPECT_EQ(fired(res[0], rt::FaultSite::kGcHook), 0u);
    EXPECT_GT(res[0].loopsCompiled, 0u);
}

TEST(HarnessInject, EnvSpecRunsAndIsTheProvenance)
{
    const std::string path = testing::TempDir() + "test_harness-prof.json";
    const std::string profileFlag = "--profile=" + path;
    setenv("XLVM_INJECT", "recorder:1", 1);
    std::unique_ptr<bench::Session> s = harness({profileFlag.c_str()});
    std::vector<driver::RunResult> res = s->sweep(
        {bench::baseOptions("richards", driver::VmKind::PyPyJit)});
    unsetenv("XLVM_INJECT");
    ASSERT_EQ(res.size(), 1u);
    ASSERT_TRUE(res[0].completed) << res[0].error;
    EXPECT_GE(fired(res[0], rt::FaultSite::kRecorder), 1u);
    ASSERT_EQ(s->finish(), 0);

    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string err;
    report::Json doc = report::Json::parse(text.str(), &err);
    ASSERT_TRUE(err.empty()) << err;
    const report::Json *inject = doc.get("runs")
                                     ->items()
                                     .at(0)
                                     .get("provenance")
                                     ->get("inject");
    ASSERT_NE(inject, nullptr);
    EXPECT_EQ(inject->asString(), "recorder:1");
    std::remove(path.c_str());
}

// ---- numeric flags ------------------------------------------------------

TEST(HarnessFlagsDeathTest, MalformedNumberExitsNamingTheFlag)
{
    const std::vector<std::pair<const char *, std::vector<const char *>>>
        cases = {
            {"--max-traces", {"--max-traces", "abc"}},
            {"--storm-threshold", {"--storm-threshold=-1"}},
            {"--compile-budget", {"--compile-budget="}},
            {"--blacklist-cooldown", {"--blacklist-cooldown", "12x"}},
            {"--blacklist-cooldown", {"--blacklist-cooldown=4294967296"}},
            {"--profile-interval", {"--profile-interval", " 5"}},
            {"--trace-buffer-events",
             {"--trace-buffer-events=18446744073709551616"}},
        };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.second.at(0));
        EXPECT_EXIT(harness(c.second), testing::ExitedWithCode(2),
                    std::string(c.first) + ": expected an integer");
    }
}

TEST(HarnessFlags, NumericFlagsReachTheRunConfig)
{
    // UINT32_MAX is a value like any other, not a "flag not given" mark.
    std::unique_ptr<bench::Session> s =
        harness({"--max-traces", "7", "--storm-threshold=9",
                 "--blacklist-cooldown", "0",
                 "--compile-budget=4294967295"});
    driver::RunOptions o =
        bench::baseOptions("richards", driver::VmKind::CPythonLike);
    o.maxInstructions = 1000 * 1000;
    s->sweep({o});

    const report::Json doc = s->registry.toJson();
    const report::Json &cfg =
        *doc.get("runs")->items().at(0).get("metrics")->get("config");
    EXPECT_EQ(cfg.get("max_traces")->asUInt(), 7u);
    EXPECT_EQ(cfg.get("storm_threshold")->asUInt(), 9u);
    EXPECT_EQ(cfg.get("blacklist_cooldown")->asUInt(), 0u);
    EXPECT_EQ(cfg.get("compile_budget_ops")->asUInt(), 4294967295u);
}

} // namespace
} // namespace xlvm
