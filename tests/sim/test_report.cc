/**
 * @file
 * Tests for the structured metrics layer: string escaping, the shape
 * of the sweep CSV, and histogram reconstruction. The JSON documents
 * themselves are pinned byte for byte by test_golden_docs.cc.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "workload/profile.hh"

using namespace ppa;

TEST(Report, JsonEscapeHandlesSpecials)
{
    EXPECT_EQ(metrics::jsonEscape("plain"), "plain");
    EXPECT_EQ(metrics::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(metrics::jsonEscape("tab\there"), "tab\\there");
    EXPECT_EQ(metrics::jsonEscape(std::string("nul\x01") + "x"),
              "nul\\u0001x");
}

TEST(Report, CsvHasOneRowPerJobAndMatchingColumns)
{
    ExperimentKnobs knobs;
    knobs.instsPerCore = 3000;
    std::vector<SweepJob> jobs = {
        {profileByName("gcc"), SystemVariant::MemoryMode, knobs},
        {profileByName("hmmer"), SystemVariant::Ppa, knobs},
    };
    auto results = ExperimentDriver(2).run(jobs);
    std::string csv = metrics::sweepToCsv(results);

    std::istringstream is(csv);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(is, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 1u + jobs.size());

    auto columns = [](const std::string &row) {
        std::size_t n = 1;
        for (char c : row)
            n += c == ',';
        return n;
    };
    std::size_t headerCols = columns(lines[0]);
    EXPECT_GT(headerCols, 30u);
    for (std::size_t i = 1; i < lines.size(); ++i)
        EXPECT_EQ(columns(lines[i]), headerCols) << "row " << i;
    EXPECT_EQ(lines[1].substr(0, 4), "gcc,");
    EXPECT_EQ(lines[2].substr(0, 6), "hmmer,");
}

TEST(Report, HistogramFromBinsRebuildsTotals)
{
    stats::Histogram h = stats::Histogram::fromBins({0, 3, 0, 2});
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.maxValue(), 3u);
    EXPECT_EQ(h.binCounts(),
              (std::vector<std::uint64_t>{0, 3, 0, 2}));
}
