// Golden-file invariant for the campaign report: report.json, with its volatile lines
// masked (wall-clock seconds, worker count, process counters), must be byte-identical
// whether the campaign ran on 1, 2, or 4 workers — the determinism-harness bar restated
// over the report artifact, so CI can diff reports across machines and configurations.
// The bytes themselves are pinned to tests/corpus/reference-report.golden by
// PipelineDeterminismTest.CounterTotalsAndMaskedReportInvariant (replay lane).
#include <gtest/gtest.h>

#include <string>

#include "src/snowboard/pipeline.h"
#include "src/snowboard/report_html.h"
#include "src/util/counters.h"
#include "tests/golden.h"

namespace snowboard {
namespace {

std::string MaskedReportFor(int num_workers) {
  // Counters feed the run.* metrics; reset between campaigns for clean attribution.
  ResetPipelineCounters();
  PipelineOptions options = ReferenceCampaignOptions(num_workers);
  PipelineResult result = RunSnowboardPipeline(options);
  CampaignReport report = BuildCampaignReport(options, result);
  return MaskReportVolatile(RenderReportJson(report));
}

TEST(ReportGoldenTest, MaskedReportJsonInvariantAcrossWorkerCounts) {
  std::string base = MaskedReportFor(1);
  ASSERT_FALSE(base.empty());
  for (int workers : {2, 4}) {
    SCOPED_TRACE(testing::Message() << "num_workers=" << workers);
    EXPECT_EQ(MaskedReportFor(workers), base);
  }
}

TEST(ReportGoldenTest, ReportCarriesSchemaAndFullFunnel) {
  ResetPipelineCounters();
  PipelineOptions options = ReferenceCampaignOptions(2);
  PipelineResult result = RunSnowboardPipeline(options);
  CampaignReport report = BuildCampaignReport(options, result);
  std::string json = RenderReportJson(report);

  EXPECT_NE(json.find("\"schema\": \"snowboard-report-v1\""), std::string::npos);
  for (const char* stage :
       {"corpus_programs", "pmcs_identified", "pmc_pairs_total", "clusters",
        "tests_executed", "tests_with_findings"}) {
    EXPECT_NE(json.find(std::string("\"stage\": \"") + stage + "\""), std::string::npos)
        << "funnel stage " << stage << " missing";
  }
  for (const char* name : {"corpus", "profile", "identify", "cluster", "execute"}) {
    EXPECT_NE(json.find(std::string("\"name\": \"") + name + "\""), std::string::npos)
        << "stage timing " << name << " missing";
  }
  // This configuration reliably surfaces findings (see pipeline_determinism_test); the
  // report must carry them with their triage fields.
  EXPECT_FALSE(report.findings.empty());
  EXPECT_NE(json.find("\"issue_id\":"), std::string::npos);

  // Masking leaves no un-masked wall-clock or worker-shape values behind.
  std::string masked = MaskReportVolatile(json);
  EXPECT_NE(masked.find("\"num_workers\": \"<masked>\""), std::string::npos);
  EXPECT_EQ(masked.find("\"wall_seconds\": 0."), std::string::npos);
  EXPECT_NE(masked.find("\"schema\": \"snowboard-report-v1\""), std::string::npos);
}

// Text as report.html renders it: &, <, > and " escaped.
std::string HtmlText(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

TEST(ReportGoldenTest, HtmlIsSelfContainedAndCarriesFindings) {
  ResetPipelineCounters();
  PipelineOptions options = ReferenceCampaignOptions(2);
  PipelineResult result = RunSnowboardPipeline(options);
  CampaignReport report = BuildCampaignReport(options, result);
  std::string html = RenderReportHtml(report);

  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("prefers-color-scheme"), std::string::npos);
  // Self-contained: no external fetches, no scripts.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("src="), std::string::npos);
  // Which findings appear depends on the checkout path (SB_SITE ids hash __FILE__); some
  // summaries carry "->", so the lookup must use the escaped form.
  for (const FunnelRow& row : report.funnel) {
    EXPECT_NE(html.find(HtmlText(row.title)), std::string::npos) << row.title;
  }
  for (const ReportFinding& finding : report.findings) {
    EXPECT_NE(html.find(HtmlText(finding.summary)), std::string::npos) << finding.summary;
  }
  // A pruned trial adds no new edge; it need not duplicate an earlier one. Nothing retries.
  EXPECT_NE(html.find("trials pruned (no new edge)"), std::string::npos);
  EXPECT_EQ(html.find("duplicate trials pruned"), std::string::npos);
  EXPECT_EQ(html.find("hung trials retried"), std::string::npos);
}

}  // namespace
}  // namespace snowboard
