/**
 * @file
 * Exporter regression tests: failed sweep points keep their row with an
 * error column (not fabricated zeros), CSV fields are RFC-4180 quoted,
 * JSON numbers are round-trip exact with non-finite values as null, and
 * every produced document passes the structural JSON checker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "core/sweep_io.hh"
#include "sim/trace.hh"
#include "task_helpers.hh"

namespace lergan {
namespace {

constexpr const char *kCsvHeader =
    "benchmark,config,ms_per_iteration,mj_per_iteration,"
    "crossbars,oversubscribed,energy_compute_pj,energy_comm_pj,"
    "energy_update_pj,error\n";

SweepResult
okPoint()
{
    SweepResult result;
    result.benchmark = "DCGAN";
    result.configLabel = "lergan-low";
    result.report.iterationTime = 1'000'000'000; // 1 ms
    result.report.stats.set("energy.compute.adc", 1.5);
    result.report.stats.set("energy.comm.bus", 0.5);
    result.report.stats.set("energy.update", 2.5);
    result.crossbarsUsed = 7;
    result.oversubscribed = 1;
    return result;
}

SweepResult
failedPoint()
{
    SweepResult result;
    result.benchmark = "bad,bench";
    result.configLabel = "quo\"te";
    result.failed = true;
    result.error = "compile exploded:\nline two";
    return result;
}

TEST(SweepCsv, HeaderEndsWithErrorColumn)
{
    std::ostringstream oss;
    writeSweepCsv(oss, {});
    EXPECT_EQ(oss.str(), kCsvHeader);
}

TEST(SweepCsv, FailedRowKeepsIdentityAndEmptiesMetrics)
{
    std::ostringstream oss;
    writeSweepCsv(oss, {failedPoint()});
    EXPECT_EQ(oss.str(),
              std::string(kCsvHeader) +
                  "\"bad,bench\",\"quo\"\"te\",,,,,,,,"
                  "\"compile exploded:\nline two\"\n");
}

TEST(SweepCsv, OkRowHasMetricsAndEmptyErrorCell)
{
    std::ostringstream oss;
    writeSweepCsv(oss, {okPoint()});
    EXPECT_EQ(oss.str(), std::string(kCsvHeader) +
                             "DCGAN,lergan-low,1,4.5e-09,7,1,1.5,0.5,"
                             "2.5,\n");
}

TEST(SweepCsv, EveryRowHasTheHeaderFieldCount)
{
    std::ostringstream oss;
    writeSweepCsv(oss, {okPoint(), failedPoint()});
    // Unquoted rows only (quoted fields may hold commas/newlines):
    // the ok row must split into exactly the header's 10 fields.
    std::istringstream lines(oss.str());
    std::string header, ok_row;
    std::getline(lines, header);
    std::getline(lines, ok_row);
    const auto commas = [](const std::string &line) {
        return std::count(line.begin(), line.end(), ',');
    };
    EXPECT_EQ(commas(ok_row), commas(header));
}

TEST(SweepJson, FailedPointCarriesErrorInsteadOfMetrics)
{
    std::ostringstream oss;
    writeSweepJson(oss, {okPoint(), failedPoint()});
    const std::string out = oss.str();

    std::string error;
    EXPECT_TRUE(isValidJson(out, &error)) << error;
    EXPECT_NE(out.find("\"failed\":true"), std::string::npos);
    EXPECT_NE(out.find("\"error\":\"compile exploded:\\nline two\""),
              std::string::npos);
    // Metrics appear once (the ok point), not for the failed one.
    const auto first = out.find("\"ms_per_iteration\"");
    EXPECT_NE(first, std::string::npos);
    EXPECT_EQ(out.find("\"ms_per_iteration\"", first + 1),
              std::string::npos);
}

TEST(SweepJson, NonFiniteMetricsSerializeAsNull)
{
    SweepResult result = okPoint();
    result.report.stats.set("energy.update",
                            std::numeric_limits<double>::quiet_NaN());
    result.report.stats.set("energy.comm.bus",
                            std::numeric_limits<double>::infinity());

    std::ostringstream oss;
    writeSweepJson(oss, {result});
    const std::string out = oss.str();

    std::string error;
    EXPECT_TRUE(isValidJson(out, &error)) << error << "\n" << out;
    EXPECT_NE(out.find("\"energy.update\":null"), std::string::npos);
    EXPECT_NE(out.find("\"energy.comm.bus\":null"), std::string::npos);
    EXPECT_EQ(out.find("nan"), std::string::npos);
    EXPECT_EQ(out.find("inf"), std::string::npos);
}

TEST(SweepJson, AuditVerdictsAreExported)
{
    SweepResult result = okPoint();
    result.audit.ran = true;
    result.audit.checksRun = 4;
    result.audit.fail("energy", "component sums diverged by 2 pJ");

    std::ostringstream oss;
    writeSweepJson(oss, {result});
    const std::string out = oss.str();

    std::string error;
    EXPECT_TRUE(isValidJson(out, &error)) << error;
    EXPECT_NE(out.find("\"audit\":{\"ok\":false,\"checks\":4,"
                       "\"failures\":[{\"check\":\"energy\","
                       "\"detail\":\"component sums diverged by 2 "
                       "pJ\"}]}"),
              std::string::npos)
        << out;
}

TEST(JsonWriter, DoublesRoundTripExactly)
{
    for (const double value : {0.1, 1.0 / 3.0, 6.02214076e23,
                               -7.25e-19, 75.847437002000007}) {
        std::ostringstream oss;
        JsonWriter(oss).value(value);
        EXPECT_EQ(std::strtod(oss.str().c_str(), nullptr), value)
            << oss.str();
    }
}

TEST(JsonWriter, NonFiniteBecomesNull)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginArray();
    json.value(std::numeric_limits<double>::quiet_NaN());
    json.value(std::numeric_limits<double>::infinity());
    json.value(-std::numeric_limits<double>::infinity());
    json.endArray();
    EXPECT_EQ(oss.str(), "[null,null,null]");
}

TEST(ChromeTrace, ExportIsStructurallyValidJson)
{
    Tracer tracer;
    TaskGraph graph;
    recordNamedTask(tracer, graph, "mmv:G.l2.tconv@trainG", 0, 150, 0);
    recordNamedTask(tracer, graph, "xfer:\"quoted\"\nlabel", 150, 300, 1);
    recordNamedTask(tracer, graph, "update:D.l1.conv@trainD", 300, 450, 2);

    std::ostringstream oss;
    tracer.exportChromeTrace(oss, {"lane a", "lane b", "lane c"});
    std::string error;
    EXPECT_TRUE(isValidJson(oss.str(), &error)) << error << "\n"
                                                << oss.str();
}

TEST(JsonChecker, AcceptsValidAndRejectsInvalid)
{
    EXPECT_TRUE(isValidJson("null"));
    EXPECT_TRUE(isValidJson(" [1,2.5e3,\"x\",{\"k\":true}] "));
    EXPECT_TRUE(isValidJson("{\"u\":\"\\u00e9\"}"));

    std::string error;
    EXPECT_FALSE(isValidJson("", &error));
    EXPECT_FALSE(isValidJson("{", &error));
    EXPECT_FALSE(isValidJson("nan", &error));
    EXPECT_FALSE(isValidJson("[1,]", &error));
    EXPECT_FALSE(isValidJson("{\"a\":1,}", &error));
    EXPECT_FALSE(isValidJson("{\"a\" 1}", &error));
    EXPECT_FALSE(isValidJson("[1] x", &error));
    EXPECT_NE(error.find("trailing"), std::string::npos);
    EXPECT_FALSE(isValidJson("\"unterminated", &error));
    EXPECT_FALSE(isValidJson("\"bad \\q escape\"", &error));
    EXPECT_FALSE(isValidJson("01", &error));
    EXPECT_FALSE(isValidJson("1.", &error));
}

} // namespace
} // namespace lergan
