/** @file
 * Tests for the litmus corpus and the crash-point conformance engine.
 *
 * Corpus hygiene first (every test must sit inside the model's sound
 * fragment), then end-to-end conformance: the PPA variant must satisfy
 * the Strict flavor with full coverage under exhaustive crash
 * enumeration, ReplayCache must satisfy Epoch, and memory-mode must
 * demonstrably diverge from Strict while conforming to Relaxed — the
 * discrimination property that makes the checker worth having.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "check/litmus.hh"
#include "check/model.hh"

using namespace ppa;
using check::ExploreMode;
using check::LitmusOptions;
using check::LitmusResult;
using check::LitmusTest;
using check::PersistFlavor;
using check::PersistModel;

namespace
{

PersistModel
modelOf(const LitmusTest &test)
{
    std::vector<const Program *> progs;
    for (const Program &p : test.threads)
        progs.push_back(&p);
    return PersistModel(progs);
}

LitmusResult
runOn(const std::string &name, SystemVariant variant,
      ExploreMode mode = ExploreMode::Exhaustive, std::uint64_t seed = 1)
{
    const LitmusTest *test = check::findLitmusTest(name);
    EXPECT_NE(test, nullptr) << name;
    LitmusOptions opts;
    opts.variant = variant;
    opts.mode = mode;
    opts.seed = seed;
    opts.schedules = 24;
    return check::runLitmusTest(*test, opts);
}

} // namespace

TEST(LitmusCorpus, HasAtLeastTenTestsWithUniqueNames)
{
    const auto &corpus = check::litmusCorpus();
    EXPECT_GE(corpus.size(), 10u);
    std::set<std::string> names;
    for (const LitmusTest &t : corpus) {
        EXPECT_TRUE(names.insert(t.name).second)
            << "duplicate name " << t.name;
        EXPECT_FALSE(t.description.empty()) << t.name;
        EXPECT_EQ(check::findLitmusTest(t.name), &t);
    }
    EXPECT_EQ(check::findLitmusTest("no-such-test"), nullptr);
}

TEST(LitmusCorpus, EveryTestIsInsideTheModelsSoundFragment)
{
    for (const LitmusTest &t : check::litmusCorpus()) {
        PersistModel model = modelOf(t);
        EXPECT_TRUE(model.racyAddresses().empty()) << t.name;
        EXPECT_TRUE(model.crossThreadReads().empty()) << t.name;
        EXPECT_GE(model.totalStores(), 2u) << t.name;
        ASSERT_FALSE(t.observed.empty()) << t.name;

        // NVM writebacks are line-granular: observed addresses must
        // not share a cache line or one address's persist drags the
        // other's value along.
        std::set<Addr> observedLines;
        for (Addr a : t.observed)
            EXPECT_TRUE(observedLines.insert(a & ~Addr{0xFF}).second)
                << t.name << ": observed addresses share a line";

        // Declared extra coverage goals must be Strict-reachable.
        if (!t.extraRequired.empty()) {
            auto reachable = model.reachableOutcomes(
                PersistFlavor::Strict, t.observed);
            for (const auto &o : t.extraRequired)
                EXPECT_NE(std::find(reachable.begin(), reachable.end(),
                                    o),
                          reachable.end())
                    << t.name << ": unreachable extraRequired";
        }
    }
}

TEST(LitmusEngine, FlavorAndSupportPerVariant)
{
    EXPECT_EQ(check::flavorForVariant(SystemVariant::Ppa),
              PersistFlavor::Strict);
    EXPECT_EQ(check::flavorForVariant(SystemVariant::ReplayCache),
              PersistFlavor::Epoch);
    EXPECT_EQ(check::flavorForVariant(SystemVariant::MemoryMode),
              PersistFlavor::Relaxed);

    std::string why;
    EXPECT_TRUE(check::variantSupportsLitmus(SystemVariant::Ppa, &why));
    EXPECT_TRUE(
        check::variantSupportsLitmus(SystemVariant::ReplayCache, &why));
    EXPECT_TRUE(
        check::variantSupportsLitmus(SystemVariant::MemoryMode, &why));
    for (SystemVariant v :
         {SystemVariant::Capri, SystemVariant::EadrBbb,
          SystemVariant::DramOnly}) {
        why.clear();
        EXPECT_FALSE(check::variantSupportsLitmus(v, &why));
        EXPECT_FALSE(why.empty());
    }
}

TEST(LitmusEngine, PpaConformsToStrictWithFullCoverage)
{
    for (const char *name : {"mp", "coherence", "zero-regions",
                             "multi-region"}) {
        LitmusResult r = runOn(name, SystemVariant::Ppa);
        EXPECT_TRUE(r.pass()) << name;
        EXPECT_FALSE(r.corpusError) << name;
        EXPECT_EQ(r.violations, 0u) << name;
        EXPECT_EQ(r.strictDivergences, 0u) << name;
        EXPECT_TRUE(r.coverageRequired) << name;
        EXPECT_EQ(r.vacuous, 0u) << name;
        EXPECT_EQ(r.requiredSeen, r.requiredTotal) << name;
        EXPECT_GT(r.crashPoints, 0u) << name;
    }
}

TEST(LitmusEngine, PpaSurvivesCsqOverflowBoundaries)
{
    LitmusResult r = runOn("csq-overflow", SystemVariant::Ppa);
    EXPECT_TRUE(r.pass());
    EXPECT_EQ(r.violations, 0u);
    // The run crosses a CSQ-full implicit boundary, so crash points
    // land on both sides of it and many distinct prefixes show up.
    EXPECT_GT(r.distinctOutcomes, 4u);
}

TEST(LitmusEngine, MemoryModeDivergesFromStrictButMeetsRelaxed)
{
    LitmusResult r = runOn("mp", SystemVariant::MemoryMode);
    EXPECT_EQ(r.flavor, PersistFlavor::Relaxed);
    // Conforms to its own (weak) contract...
    EXPECT_TRUE(r.pass());
    EXPECT_EQ(r.violations, 0u);
    // ...but the checker proves the contract is genuinely weaker:
    // crashes expose states the PPA model forbids.
    EXPECT_GT(r.strictDivergences, 0u);
    // Relaxed coverage is best-effort; vacuity must not fail it.
    EXPECT_FALSE(r.coverageRequired);
}

TEST(LitmusEngine, ReplayCacheConformsToEpoch)
{
    for (const char *name : {"mp-epoch", "epoch-chain"}) {
        LitmusResult r = runOn(name, SystemVariant::ReplayCache);
        EXPECT_EQ(r.flavor, PersistFlavor::Epoch);
        EXPECT_TRUE(r.pass()) << name;
        EXPECT_EQ(r.violations, 0u) << name;
    }
}

TEST(LitmusEngine, RandomizedModeIsDeterministicPerSeed)
{
    LitmusResult a =
        runOn("wpq-pressure", SystemVariant::Ppa, ExploreMode::Randomized,
              /*seed=*/42);
    LitmusResult b =
        runOn("wpq-pressure", SystemVariant::Ppa, ExploreMode::Randomized,
              /*seed=*/42);
    EXPECT_EQ(a.crashPoints, b.crashPoints);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.strictDivergences, b.strictDivergences);
    EXPECT_EQ(a.distinctOutcomes, b.distinctOutcomes);
    EXPECT_EQ(a.requiredSeen, b.requiredSeen);
    EXPECT_EQ(a.violations, 0u);
}

TEST(LitmusEngine, UnsupportedVariantReportsCorpusError)
{
    LitmusResult r = runOn("mp", SystemVariant::DramOnly);
    EXPECT_TRUE(r.corpusError);
    EXPECT_FALSE(r.pass());
    EXPECT_FALSE(r.notes.empty());
}

TEST(LitmusEngine, JsonCarriesSchemaAndPerTestVerdicts)
{
    LitmusOptions opts;
    std::vector<LitmusResult> results = {
        runOn("mp", SystemVariant::Ppa),
        runOn("sb", SystemVariant::Ppa),
    };
    std::string json = check::litmusResultsJson(results, opts);
    EXPECT_NE(json.find("\"schemaVersion\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"variant\": \"ppa\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"mp\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"sb\""), std::string::npos);
    EXPECT_NE(json.find("\"pass\": true"), std::string::npos);
    EXPECT_NE(json.find("\"totals\""), std::string::npos);
}

TEST(LitmusEngine, JsonEscapesControlBytesInNamesAndNotes)
{
    // Names come from .litmus files read with >>, notes quote them; a
    // raw control byte would make the document invalid JSON.
    LitmusResult r;
    r.test = "odd\x01name";
    r.notes.push_back("tab\there");
    std::string json = check::litmusResultsJson({r}, LitmusOptions{});
    EXPECT_NE(json.find("\"name\": \"odd\\u0001name\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"tab\\there\""), std::string::npos) << json;
    EXPECT_EQ(json.find('\x01'), std::string::npos);
    EXPECT_EQ(json.find('\t'), std::string::npos);
}
