/** @file
 * Tests for the crash-consistency fuzzer: generator hygiene (every
 * random program stays inside the persist model's sound fragment and
 * regenerates bit-identically from (seed, index)), text round-trips,
 * shrinker determinism/termination/1-minimality, campaign verdicts,
 * and the checked-in corpus of minimal reproducers — each one must
 * still violate its recorded flavor at its recorded cycle and remain
 * 1-minimal, so a simulator change that silently fixes or unfixes a
 * reproducer is caught here.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/model.hh"
#include "fuzz/campaign.hh"
#include "fuzz/shrink.hh"
#include "fuzz/spec.hh"

using namespace ppa;
using check::PersistFlavor;
using check::PersistModel;
using fuzz::FuzzSpec;
using fuzz::GeneratorConfig;
using fuzz::ShrinkLimits;
using fuzz::Violation;

namespace
{

PersistModel
modelOf(const check::LitmusTest &test)
{
    std::vector<const Program *> progs;
    for (const Program &p : test.threads)
        progs.push_back(&p);
    return PersistModel(progs);
}

/** Find a strict-forbidden crash of a memory-mode run of @p spec. */
bool
memoryModeViolation(const FuzzSpec &spec, Violation &out)
{
    std::uint64_t judged = 0;
    return fuzz::findEarliestViolation(spec, SystemVariant::MemoryMode,
                                       PersistFlavor::Strict, {}, judged,
                                       out);
}

std::string
corpusDir()
{
    return std::string(PPA_SOURCE_DIR) + "/tests/fuzz/corpus";
}

} // namespace

TEST(FuzzGenerator, RegeneratesBitIdenticallyFromSeedAndIndex)
{
    GeneratorConfig cfg;
    for (std::uint64_t i = 0; i < 8; ++i) {
        FuzzSpec a = fuzz::generateSpec(cfg, 20260808, i);
        FuzzSpec b = fuzz::generateSpec(cfg, 20260808, i);
        EXPECT_EQ(fuzz::specText(a), fuzz::specText(b)) << i;
    }
}

TEST(FuzzGenerator, DistinctSeedsAndIndexesDiverge)
{
    GeneratorConfig cfg;
    std::set<std::string> texts;
    for (std::uint64_t i = 0; i < 16; ++i)
        texts.insert(fuzz::specText(fuzz::generateSpec(cfg, 7, i)));
    for (std::uint64_t s = 1; s <= 16; ++s)
        texts.insert(fuzz::specText(fuzz::generateSpec(cfg, s, 0)));
    // Collisions are astronomically unlikely; near-total distinctness
    // is the point (a frozen generator would collapse this set).
    EXPECT_GE(texts.size(), 30u);
}

TEST(FuzzGenerator, EveryProgramStaysInsideTheSoundFragment)
{
    GeneratorConfig cfg;
    for (std::uint64_t i = 0; i < 64; ++i) {
        FuzzSpec spec = fuzz::generateSpec(cfg, 99, i);
        ASSERT_FALSE(spec.threads.empty()) << i;
        ASSERT_FALSE(spec.observed.empty()) << i;
        check::LitmusTest test = fuzz::lowerSpec(spec);
        PersistModel model = modelOf(test);
        EXPECT_TRUE(model.racyAddresses().empty()) << spec.name;
        EXPECT_TRUE(model.crossThreadReads().empty()) << spec.name;
    }
}

TEST(FuzzGenerator, SpecTextRoundTrips)
{
    GeneratorConfig cfg;
    for (std::uint64_t i = 0; i < 8; ++i) {
        FuzzSpec spec = fuzz::generateSpec(cfg, 5, i);
        FuzzSpec back;
        std::string error;
        ASSERT_TRUE(fuzz::parseSpecText(fuzz::specText(spec), back,
                                        error))
            << error;
        EXPECT_EQ(fuzz::specText(spec), fuzz::specText(back));
    }
}

TEST(FuzzGenerator, ParserRejectsMalformedSpecs)
{
    FuzzSpec out;
    std::string error;
    EXPECT_FALSE(fuzz::parseSpecText("", out, error));
    EXPECT_FALSE(fuzz::parseSpecText("name x\nend\n", out, error));
    EXPECT_FALSE(fuzz::parseSpecText(
        "name x\nlinesPerThread 4\nthread 0x40000\n  store 9 1\n"
        "end-thread\nobserve 0x40000\nend\n",
        out, error))
        << "line index out of range must be rejected";
    EXPECT_FALSE(fuzz::parseSpecText(
        "name x\nlinesPerThread 4\nthread 0x40000\n  store 0 0\n"
        "end-thread\nobserve 0x40000\nend\n",
        out, error))
        << "store value 0 must be rejected";
}

TEST(FuzzShrink, MemoryModeViolationShrinksDeterministically)
{
    GeneratorConfig cfg;
    Violation v;
    bool found = false;
    for (std::uint64_t i = 0; i < 8 && !found; ++i)
        found = memoryModeViolation(fuzz::generateSpec(cfg, 20260808, i),
                                    v);
    ASSERT_TRUE(found) << "memory-mode must expose strict violations";

    fuzz::ShrinkResult a = fuzz::shrinkViolation(v);
    fuzz::ShrinkResult b = fuzz::shrinkViolation(v);
    EXPECT_EQ(fuzz::specText(a.min.spec), fuzz::specText(b.min.spec));
    EXPECT_EQ(a.min.cycle, b.min.cycle);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.judged, b.judged);
}

TEST(FuzzShrink, ResultIsOneMinimalAndWithinBudget)
{
    GeneratorConfig cfg;
    Violation v;
    bool found = false;
    for (std::uint64_t i = 0; i < 8 && !found; ++i)
        found = memoryModeViolation(fuzz::generateSpec(cfg, 20260808, i),
                                    v);
    ASSERT_TRUE(found);

    fuzz::ShrinkResult res = fuzz::shrinkViolation(v);
    EXPECT_FALSE(res.budgetExhausted);
    ShrinkLimits limits;
    EXPECT_LT(res.judged, limits.maxCrashSims);

    // The minimum still violates...
    Violation again;
    std::uint64_t judged = 0;
    ASSERT_TRUE(fuzz::findEarliestViolation(res.min.spec, res.min.variant,
                                            res.min.flavor, limits,
                                            judged, again));
    EXPECT_EQ(again.cycle, res.min.cycle);
    // ...and no single further reduction does.
    EXPECT_TRUE(fuzz::isOneMinimal(res.min, limits, judged));
}

TEST(FuzzShrink, BudgetExhaustionIsReportedNotLooped)
{
    GeneratorConfig cfg;
    Violation v;
    ASSERT_TRUE(memoryModeViolation(fuzz::generateSpec(cfg, 20260808, 0),
                                    v));
    ShrinkLimits tight;
    tight.maxCrashSims = 50; // far below one exhaustive cycle scan
    fuzz::ShrinkResult res = fuzz::shrinkViolation(v, tight);
    EXPECT_TRUE(res.budgetExhausted);
    EXPECT_LE(res.judged, tight.maxCrashSims);
}

TEST(FuzzCampaign, PpaCampaignIsViolationFreeAndReproducible)
{
    fuzz::CampaignOptions opts;
    opts.variant = SystemVariant::Ppa;
    opts.programs = 6;
    opts.schedules = 4;
    opts.seed = 20260808;
    fuzz::CampaignResult a = fuzz::runCampaign(opts);
    EXPECT_TRUE(a.pass());
    EXPECT_EQ(a.violations, 0u);
    EXPECT_EQ(a.strictDivergences, 0u);
    EXPECT_EQ(a.skipped, 0u);
    EXPECT_EQ(a.crashPoints, 24u);

    fuzz::CampaignResult b = fuzz::runCampaign(opts);
    EXPECT_EQ(fuzz::campaignJson(a, opts), fuzz::campaignJson(b, opts));
}

TEST(FuzzCampaign, JsonEscapesControlBytesInPathsAndNotes)
{
    // A --corpus-out path lands in reproducerFile and program names in
    // notes; raw control bytes there would make the document invalid
    // JSON for tools/*_report.py.
    fuzz::CampaignResult res;
    fuzz::CampaignFinding f;
    f.program = "fz\x01odd";
    f.reproducerFile = "out\tdir/fz.litmus";
    f.detail = "cut\x1f";
    res.findings.push_back(f);
    res.notes.push_back("note\twith tab");
    std::string json = fuzz::campaignJson(res, fuzz::CampaignOptions{});
    EXPECT_NE(json.find("\"program\": \"fz\\u0001odd\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"reproducer\": \"out\\tdir/fz.litmus\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"detail\": \"cut\\u001f\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"note\\twith tab\""), std::string::npos)
        << json;
    for (char c : json)
        EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
            << "raw control byte " << static_cast<int>(c);
}

TEST(FuzzCampaign, MemoryModeCampaignFindsAndShrinksStrictDivergence)
{
    fuzz::CampaignOptions opts;
    opts.variant = SystemVariant::MemoryMode;
    opts.programs = 10;
    opts.schedules = 6;
    opts.seed = 20260808;
    opts.maxFindings = 1;
    fuzz::CampaignResult res = fuzz::runCampaign(opts);
    EXPECT_TRUE(res.pass()) << "relaxed flavor must hold";
    EXPECT_EQ(res.violations, 0u);
    EXPECT_GT(res.strictDivergences, 0u);
    ASSERT_EQ(res.findings.size(), 1u);
    const fuzz::CampaignFinding &f = res.findings.front();
    EXPECT_TRUE(f.strictOnly);
    EXPECT_EQ(f.flavor, PersistFlavor::Strict);
    EXPECT_FALSE(f.shrinkBudgetExhausted);
    EXPECT_LE(f.threadsAfter, f.threadsBefore);
    EXPECT_LT(f.actionsAfter, f.actionsBefore);
}

TEST(FuzzCorpus, CheckedInReproducersStillViolateAndStayMinimal)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(corpusDir()))
        if (entry.path().extension() == ".litmus")
            files.push_back(entry.path());
    ASSERT_FALSE(files.empty())
        << "tests/fuzz/corpus must hold at least one reproducer";

    for (const auto &path : files) {
        std::ifstream in(path);
        std::stringstream buf;
        buf << in.rdbuf();

        Violation v;
        std::string error;
        ASSERT_TRUE(fuzz::parseReproducerText(buf.str(), v, error))
            << path << ": " << error;

        Violation confirmed;
        std::uint64_t judged = 0;
        ShrinkLimits limits;
        ASSERT_TRUE(fuzz::findEarliestViolation(v.spec, v.variant,
                                                v.flavor, limits, judged,
                                                confirmed))
            << path << ": reproducer no longer violates";
        EXPECT_EQ(confirmed.cycle, v.cycle)
            << path << ": recorded earliest cycle drifted";
        EXPECT_TRUE(fuzz::isOneMinimal(confirmed, limits, judged))
            << path << ": reproducer is no longer 1-minimal";
    }
}

TEST(FuzzCorpus, ReproducerTextRoundTrips)
{
    GeneratorConfig cfg;
    Violation v;
    ASSERT_TRUE(memoryModeViolation(fuzz::generateSpec(cfg, 20260808, 0),
                                    v));
    fuzz::ShrinkResult res = fuzz::shrinkViolation(v);

    std::string text = fuzz::reproducerText(res.min);
    Violation back;
    std::string error;
    ASSERT_TRUE(fuzz::parseReproducerText(text, back, error)) << error;
    EXPECT_EQ(back.variant, res.min.variant);
    EXPECT_EQ(back.flavor, res.min.flavor);
    EXPECT_EQ(back.cycle, res.min.cycle);
    EXPECT_EQ(fuzz::specText(back.spec), fuzz::specText(res.min.spec));
}
