#include "src/snowboard/report_html.h"

#include <algorithm>
#include <cmath>

#include "src/snowboard/pipeline.h"
#include "src/snowboard/report.h"
#include "src/util/fs.h"
#include "src/util/strings.h"

namespace snowboard {

namespace {

std::string HtmlEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
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

}  // namespace

CampaignReport BuildCampaignReport(const PipelineOptions& options,
                                   const PipelineResult& result) {
  CampaignReport report;
  report.strategy = StrategyName(options.strategy);
  report.seed = options.seed;
  report.num_workers = options.num_workers;
  report.pmc_table_digest = result.pmc_table_digest;
  report.trials_retried = result.trials_retried;
  report.tests_resumed = result.tests_resumed;
  report.trials_pruned = result.trials_pruned;
  report.tests_saturated = result.tests_saturated;
  report.switch_decisions = result.switch_decisions;

  report.funnel = {
      {"corpus_programs", "Sequential programs", result.corpus_size},
      {"pmcs_identified", "PMCs identified", result.pmc_count},
      {"pmc_pairs_total", "PMC test pairs", result.total_pmc_pairs},
      {"clusters", "Clusters (strategy exemplars)", result.cluster_count},
      {"tests_executed", "Concurrent tests executed", result.tests_executed},
      {"trials_pruned", "Trials pruned as duplicate interleavings", result.trials_pruned},
      {"tests_saturated", "Tests saturated (ended early)", result.tests_saturated},
      {"tests_with_findings", "Tests with findings", result.tests_with_bug},
      {"schedule_switches_orig", "Captured schedule switches (recorded)",
       result.schedule_switches_orig},
      {"schedule_switches_min", "Captured schedule switches (minimized)",
       result.schedule_switches_min},
  };

  report.stages = {
      {"corpus", result.corpus_seconds, 0, false},
      {"profile", result.profile_seconds, result.profile_restore_seconds, true},
      {"identify", result.identify_seconds, 0, false},
      {"cluster", result.cluster_seconds, 0, false},
      {"execute", result.execute_seconds, result.execute_restore_seconds, true},
  };

  for (const auto& [issue_id, finding] : result.findings.first_findings()) {
    ReportFinding row;
    row.issue_id = issue_id;
    const IssueInfo* info = FindIssue(issue_id);
    if (info != nullptr) {
      row.type = IssueTypeName(info->type);
      row.summary = info->summary;
      row.subsystem = info->subsystem;
      row.harmful = info->harmful;
      row.benign = info->benign;
    } else {
      row.type = '?';
      row.summary = "unclassified detector report";
      row.subsystem = '-';
    }
    row.kind = FindingKindName(finding.kind);
    row.duplicate_input = finding.duplicate_input;
    row.test_index = finding.test_index;
    row.trial = finding.trial;
    row.evidence = finding.evidence;
    row.replay_token = finding.replay_token;
    report.findings.push_back(std::move(row));
  }

  report.metrics = CollectCampaignMetrics(options, result);
  return report;
}

std::string RenderReportJson(const CampaignReport& report) {
  std::string out = "{\n";
  StrAppendf(&out, "\"schema\": \"snowboard-report-v1\",\n");
  StrAppendf(&out, "\"strategy\": \"%s\",\n", JsonEscape(report.strategy).c_str());
  StrAppendf(&out, "\"seed\": %llu,\n", static_cast<unsigned long long>(report.seed));
  StrAppendf(&out, "\"pmc_table_digest\": \"%016llx\",\n",
             static_cast<unsigned long long>(report.pmc_table_digest));

  out += "\"funnel\": [\n";
  for (size_t i = 0; i < report.funnel.size(); i++) {
    const FunnelRow& row = report.funnel[i];
    StrAppendf(&out, "  {\"stage\": \"%s\", \"title\": \"%s\", \"count\": %llu}%s\n",
               row.label.c_str(), JsonEscape(row.title).c_str(),
               static_cast<unsigned long long>(row.value),
               i + 1 == report.funnel.size() ? "" : ",");
  }
  out += "],\n";

  // Stage objects are one-key-per-line so MaskReportVolatile can mask exactly the
  // wall-clock values and leave the structure comparable.
  out += "\"stages\": [\n";
  for (size_t i = 0; i < report.stages.size(); i++) {
    const StageTiming& stage = report.stages[i];
    out += "  {\n";
    StrAppendf(&out, "    \"name\": \"%s\",\n", stage.name.c_str());
    StrAppendf(&out, "    \"wall_seconds\": %.6f%s\n", stage.wall_seconds,
               stage.has_restore ? "," : "");
    if (stage.has_restore) {
      StrAppendf(&out, "    \"restore_seconds\": %.6f\n", stage.restore_seconds);
    }
    StrAppendf(&out, "  }%s\n", i + 1 == report.stages.size() ? "" : ",");
  }
  out += "],\n";

  out += "\"findings\": [\n";
  for (size_t i = 0; i < report.findings.size(); i++) {
    const ReportFinding& f = report.findings[i];
    StrAppendf(&out,
               "  {\"issue_id\": %d, \"type\": \"%s\", \"kind\": \"%s\", "
               "\"subsystem\": \"%s\", "
               "\"summary\": \"%s\", \"harmful\": %s, \"benign\": %s, "
               "\"duplicate_input\": %s, \"test_index\": %zu, \"trial\": %d, "
               "\"evidence\": \"%s\", \"replay_token\": \"%s\"}%s\n",
               f.issue_id, JsonEscape(f.type).c_str(), JsonEscape(f.kind).c_str(),
               JsonEscape(f.subsystem).c_str(),
               JsonEscape(f.summary).c_str(), f.harmful ? "true" : "false",
               f.benign ? "true" : "false", f.duplicate_input ? "true" : "false",
               f.test_index, f.trial, JsonEscape(f.evidence).c_str(),
               JsonEscape(f.replay_token).c_str(),
               i + 1 == report.findings.size() ? "" : ",");
  }
  out += "],\n";

  StrAppendf(&out, "\"trials_retried\": %llu,\n",
             static_cast<unsigned long long>(report.trials_retried));
  StrAppendf(&out, "\"trials_pruned\": %llu,\n",
             static_cast<unsigned long long>(report.trials_pruned));
  StrAppendf(&out, "\"tests_saturated\": %llu,\n",
             static_cast<unsigned long long>(report.tests_saturated));
  StrAppendf(&out, "\"switch_decisions\": %llu,\n",
             static_cast<unsigned long long>(report.switch_decisions));
  StrAppendf(&out, "\"tests_resumed\": %llu,\n",
             static_cast<unsigned long long>(report.tests_resumed));
  StrAppendf(&out, "\"num_workers\": %d,\n", report.num_workers);

  // Flat metrics snapshot (one key per line; "run."-prefixed keys are volatile).
  out += "\"metrics\": ";
  std::string metrics = SerializeMetricsJson(report.metrics);
  if (!metrics.empty() && metrics.back() == '\n') {
    metrics.pop_back();
  }
  out += metrics;
  out += "\n}\n";
  return out;
}

std::string MaskReportVolatile(const std::string& report_json) {
  std::string out;
  out.reserve(report_json.size());
  size_t pos = 0;
  while (pos < report_json.size()) {
    size_t end = report_json.find('\n', pos);
    if (end == std::string::npos) {
      end = report_json.size();
    }
    std::string line = report_json.substr(pos, end - pos);
    // Extract the line's key: the first quoted token, if the line is a `"key": value` pair.
    size_t key_open = line.find('"');
    size_t key_close = key_open == std::string::npos ? std::string::npos
                                                     : line.find('"', key_open + 1);
    if (key_close != std::string::npos &&
        line.compare(key_close + 1, 2, ": ") == 0) {
      std::string key = line.substr(key_open + 1, key_close - key_open - 1);
      bool volatile_key = key.find("_seconds") != std::string::npos ||
                          key.rfind("run.", 0) == 0 || key == "num_workers" ||
                          key == "tests_resumed";
      if (volatile_key) {
        bool comma = !line.empty() && line.back() == ',';
        line = line.substr(0, key_close + 3) + "\"<masked>\"" + (comma ? "," : "");
      }
    }
    out += line;
    out += '\n';
    pos = end + 1;
  }
  return out;
}

namespace {

// Funnel colors: the ordinal steps of the documented sequential-blue ramp, one per funnel
// stage, stepped for each surface (light: steps 250..650; dark: 150..600 — both ends clear
// the 2:1 ordinal floor on their surface).
const char* const kFunnelLight[6] = {"#86b6ef", "#5598e7", "#2a78d6",
                                     "#256abf", "#1c5cab", "#104281"};
const char* const kFunnelDark[6] = {"#b7d3f6", "#86b6ef", "#5598e7",
                                    "#3987e5", "#256abf", "#184f95"};

double FunnelWidthPercent(uint64_t value, uint64_t max_value) {
  if (value == 0 || max_value == 0) {
    return 0;
  }
  // Counts span orders of magnitude (thousands of PMC pairs vs a dozen findings); a log
  // scale keeps every populated stage visible. Direct labels carry the exact values.
  double w = 100.0 * std::log10(1.0 + static_cast<double>(value)) /
             std::log10(1.0 + static_cast<double>(max_value));
  return std::max(w, 1.5);
}

}  // namespace

std::string RenderReportHtml(const CampaignReport& report) {
  uint64_t max_funnel = 0;
  for (const FunnelRow& row : report.funnel) {
    max_funnel = std::max(max_funnel, row.value);
  }
  double max_stage_seconds = 0;
  double total_stage_seconds = 0;
  for (const StageTiming& stage : report.stages) {
    max_stage_seconds = std::max(max_stage_seconds, stage.wall_seconds);
    total_stage_seconds += stage.wall_seconds;
  }

  std::string out;
  out.reserve(32 * 1024);
  out += "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n";
  StrAppendf(&out, "<title>Snowboard campaign report — %s</title>\n",
             HtmlEscape(report.strategy).c_str());
  out += R"(<meta name="viewport" content="width=device-width, initial-scale=1">
<style>
:root {
  color-scheme: light dark;
  --page: #f9f9f7; --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e;
  --muted: #898781; --grid: #e1e0d9; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --critical: #d03b3b; --good: #0ca30c;
  --f0: #86b6ef; --f1: #5598e7; --f2: #2a78d6; --f3: #256abf; --f4: #1c5cab; --f5: #104281;
}
@media (prefers-color-scheme: dark) {
  :root {
    --page: #0d0d0d; --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --critical: #d03b3b; --good: #0ca30c;
    --f0: #b7d3f6; --f1: #86b6ef; --f2: #5598e7; --f3: #3987e5; --f4: #256abf; --f5: #184f95;
  }
}
body { margin: 0; background: var(--page); color: var(--ink);
       font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif; }
main { max-width: 880px; margin: 0 auto; padding: 24px 20px 48px; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 32px 0 10px; }
.meta { color: var(--ink-2); margin-bottom: 20px; }
.meta code { color: var(--muted); }
section.card { background: var(--surface); border: 1px solid var(--border);
               border-radius: 8px; padding: 16px 18px; margin-top: 12px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { flex: 1 1 140px; background: var(--surface); border: 1px solid var(--border);
        border-radius: 8px; padding: 12px 14px; }
.tile .v { font-size: 24px; font-weight: 600; }
.tile .l { color: var(--ink-2); font-size: 12px; }
.frow { margin-bottom: 10px; }
.flabel { display: flex; justify-content: space-between; margin-bottom: 3px; }
.flabel .t { color: var(--ink-2); }
.flabel .n { font-variant-numeric: tabular-nums; font-weight: 600; }
.ftrack { background: none; }
.fbar { height: 14px; border-radius: 0 4px 4px 0; margin-bottom: 2px; }
table { border-collapse: collapse; width: 100%; }
th { text-align: left; color: var(--muted); font-weight: 500; font-size: 12px;
     border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0; }
td { border-bottom: 1px solid var(--grid); padding: 6px 10px 6px 0;
     font-variant-numeric: tabular-nums; vertical-align: top; }
td.num { text-align: right; }
th.num { text-align: right; }
.tbar { height: 6px; background: var(--series-1); border-radius: 0 3px 3px 0;
        margin-top: 4px; }
.sev { font-size: 12px; font-weight: 600; white-space: nowrap; }
.sev.harmful { color: var(--critical); }
.sev.benign { color: var(--good); }
.sev.neutral { color: var(--muted); }
.evid { font-family: ui-monospace, SFMono-Regular, Menlo, monospace; font-size: 12px;
        color: var(--ink-2); word-break: break-all; }
footer { color: var(--muted); font-size: 12px; margin-top: 28px; }
</style>
</head>
<body>
<main>
)";

  StrAppendf(&out, "<h1>Snowboard campaign report</h1>\n");
  StrAppendf(&out,
             "<div class=\"meta\">strategy <b>%s</b> · seed %llu · %d worker%s · "
             "PMC table digest <code>%016llx</code></div>\n",
             HtmlEscape(report.strategy).c_str(),
             static_cast<unsigned long long>(report.seed), report.num_workers,
             report.num_workers == 1 ? "" : "s",
             static_cast<unsigned long long>(report.pmc_table_digest));

  // Headline stat tiles.
  uint64_t tests_executed = 0;
  uint64_t trials_total = 0;
  for (const FunnelRow& row : report.funnel) {
    if (row.label == "tests_executed") {
      tests_executed = row.value;
    }
  }
  trials_total = static_cast<uint64_t>(report.metrics.Value("funnel.trials_total"));
  out += "<div class=\"tiles\">\n";
  StrAppendf(&out,
             "<div class=\"tile\"><div class=\"v\">%llu</div>"
             "<div class=\"l\">concurrent tests executed</div></div>\n",
             static_cast<unsigned long long>(tests_executed));
  StrAppendf(&out,
             "<div class=\"tile\"><div class=\"v\">%llu</div>"
             "<div class=\"l\">trials run</div></div>\n",
             static_cast<unsigned long long>(trials_total));
  StrAppendf(&out,
             "<div class=\"tile\"><div class=\"v\">%zu</div>"
             "<div class=\"l\">distinct issues found</div></div>\n",
             report.findings.size());
  StrAppendf(&out,
             "<div class=\"tile\"><div class=\"v\">%llu</div>"
             "<div class=\"l\">trials pruned (no new edge)</div></div>\n",
             static_cast<unsigned long long>(report.trials_pruned));
  out += "</div>\n";

  // Funnel: one ordinal-ramp bar per stage, log-scaled width, exact counts as direct
  // labels (the labels carry the values; the bars carry the shape).
  out += "<h2>Campaign funnel</h2>\n<section class=\"card\" "
         "aria-label=\"campaign funnel, log-scaled\">\n";
  for (size_t i = 0; i < report.funnel.size(); i++) {
    const FunnelRow& row = report.funnel[i];
    double width = FunnelWidthPercent(row.value, max_funnel);
    StrAppendf(&out,
               "<div class=\"frow\"><div class=\"flabel\"><span class=\"t\">%s</span>"
               "<span class=\"n\">%llu</span></div>"
               "<div class=\"ftrack\"><div class=\"fbar\" style=\"width:%.1f%%;"
               "background:var(--f%zu)\" title=\"%s: %llu\"></div></div></div>\n",
               HtmlEscape(row.title).c_str(), static_cast<unsigned long long>(row.value),
               width, std::min<size_t>(i, 5), HtmlEscape(row.title).c_str(),
               static_cast<unsigned long long>(row.value));
  }
  out += "<div style=\"color:var(--muted);font-size:12px\">bar widths are "
         "log-scaled; labels show exact counts</div>\n</section>\n";

  // Per-stage timing table.
  out += "<h2>Stage breakdown</h2>\n<section class=\"card\">\n<table>\n"
         "<tr><th>stage</th><th class=\"num\">wall s</th><th class=\"num\">restore s"
         "</th><th class=\"num\">share</th><th style=\"width:40%\"></th></tr>\n";
  for (const StageTiming& stage : report.stages) {
    double share = total_stage_seconds > 0 ? 100.0 * stage.wall_seconds /
                                                 total_stage_seconds
                                           : 0;
    double bar = max_stage_seconds > 0 ? 100.0 * stage.wall_seconds / max_stage_seconds
                                       : 0;
    StrAppendf(&out,
               "<tr><td>%s</td><td class=\"num\">%.3f</td><td class=\"num\">%s</td>"
               "<td class=\"num\">%.1f%%</td>"
               "<td><div class=\"tbar\" style=\"width:%.1f%%\"></div></td></tr>\n",
               stage.name.c_str(), stage.wall_seconds,
               stage.has_restore ? StrPrintf("%.3f", stage.restore_seconds).c_str() : "—",
               share, bar);
  }
  out += "</table>\n</section>\n";

  // Findings table.
  out += "<h2>Findings (first discovery per issue)</h2>\n<section class=\"card\">\n";
  if (report.findings.empty()) {
    out += "<div style=\"color:var(--muted)\">no findings</div>\n";
  } else {
    out += "<table>\n<tr><th>issue</th><th>type</th><th>detector</th><th>subsystem</th>"
           "<th>summary</th><th>severity</th><th>input</th><th class=\"num\">test #</th>"
           "<th class=\"num\">trial</th></tr>\n";
    for (const ReportFinding& f : report.findings) {
      const char* sev_class = f.harmful ? "harmful" : (f.benign ? "benign" : "neutral");
      const char* sev_text = f.harmful ? "✕ harmful" : (f.benign ? "✓ benign" : "—");
      std::string token_div =
          f.replay_token.empty()
              ? std::string()
              : StrPrintf("<div class=\"evid\">replay: %s</div>",
                          HtmlEscape(f.replay_token).c_str());
      StrAppendf(&out,
                 "<tr><td>#%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s"
                 "<div class=\"evid\">%s</div>%s</td>"
                 "<td><span class=\"sev %s\">%s</span></td><td>%s</td>"
                 "<td class=\"num\">%zu</td><td class=\"num\">%d</td></tr>\n",
                 f.issue_id, HtmlEscape(f.type).c_str(), HtmlEscape(f.kind).c_str(),
                 HtmlEscape(f.subsystem).c_str(),
                 HtmlEscape(f.summary).c_str(), HtmlEscape(f.evidence).c_str(),
                 token_div.c_str(), sev_class, sev_text,
                 f.duplicate_input ? "duplicate" : "distinct", f.test_index, f.trial);
    }
    out += "</table>\n";
  }
  out += "</section>\n";

  StrAppendf(&out,
             "<footer>generated by snowboard_cli · schema snowboard-report-v1 · the "
             "machine-readable twin of this page is report.json</footer>\n");
  out += "</main>\n</body>\n</html>\n";
  return out;
}

bool WriteCampaignReport(const CampaignReport& report, const std::string& dir) {
  if (!EnsureDirectory(dir)) {
    return false;
  }
  bool ok = AtomicWriteFile(dir + "/report.json", RenderReportJson(report));
  ok = AtomicWriteFile(dir + "/report.html", RenderReportHtml(report)) && ok;
  return ok;
}

}  // namespace snowboard
