/**
 * @file
 * Tests for the figure registry: every figure's report reads only the
 * points of its own grid, the analytic tables run no simulations, and
 * a rendered table does not depend on the driver's worker count.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/driver.hh"
#include "sim/figures.hh"

using namespace ppa;

namespace
{

constexpr std::uint64_t testInsts = 2000;

class EveryFigure : public ::testing::TestWithParam<std::string>
{};

TEST_P(EveryFigure, TableReadsOnlyItsOwnGrid)
{
    // figureTable() exits on any point outside the grid, so a report
    // that strays fails this test instead of quietly running it.
    FigureSweep fs = figureSweep(GetParam(), testInsts);
    FigureTable serial = figureTable(fs, ExperimentDriver(1).run(fs.jobs));
    std::string text = serial.render();
    EXPECT_EQ(text.rfind("=== ", 0), 0u) << text;
    EXPECT_NE(text.find("|---"), std::string::npos) << text;

    FigureTable parallel =
        figureTable(fs, ExperimentDriver(4).run(fs.jobs));
    EXPECT_EQ(parallel.render(), text);
    EXPECT_EQ(parallel.extras, serial.extras);
}

INSTANTIATE_TEST_SUITE_P(
    Figures, EveryFigure, ::testing::ValuesIn(figureNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Figures, AnalyticTablesRunNoJobs)
{
    for (const char *name : {"table04", "table05"}) {
        FigureSweep fs = figureSweep(name);
        EXPECT_TRUE(fs.jobs.empty()) << name;
        FigureTable t = figureTable(fs, {});
        EXPECT_FALSE(t.extras.empty()) << name;
        EXPECT_FALSE(t.notes.empty()) << name;
    }
}

TEST(Figures, AuditedRunsRenderTheSameTable)
{
    // `sweep --audit` runs the grid with the auditors attached; the
    // table still reads the grid's own points.
    FigureSweep fs = figureSweep("table01", testInsts);
    std::vector<SweepJob> audited = fs.jobs;
    for (SweepJob &job : audited)
        job.knobs.audit = true;
    auto results = ExperimentDriver(1).run(audited);
    EXPECT_EQ(figureTable(fs, results).render(),
              figureTable(fs, ExperimentDriver(1).run(fs.jobs)).render());
}

TEST(FiguresDeathTest, PointOutsideGridIsFatal)
{
    FigureSweep fs = figureSweep("table06", testInsts);
    auto results = ExperimentDriver(1).run(fs.jobs);
    // Drop one point from both the grid and its results: the report
    // still reads it, and must refuse.
    fs.jobs.pop_back();
    results.pop_back();
    EXPECT_EXIT(figureTable(fs, results), ::testing::ExitedWithCode(1),
                "outside its grid");
}

TEST(FiguresDeathTest, ResultsMustMatchTheGrid)
{
    FigureSweep fs = figureSweep("table01", testInsts);
    auto results = ExperimentDriver(1).run(fs.jobs);
    EXPECT_EXIT(figureTable(fs, {}), ::testing::ExitedWithCode(1),
                "0 results for a grid of 3 jobs");
    std::swap(results[0], results[1]);
    EXPECT_EXIT(figureTable(fs, results), ::testing::ExitedWithCode(1),
                "but grid job 0 is hmmer/memory-mode");
}

} // namespace
