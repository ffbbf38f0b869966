#include "src/snowboard/report_sarif.h"

#include "src/snowboard/report.h"
#include "src/util/fs.h"
#include "src/util/strings.h"

namespace snowboard {

namespace {

// Stable rule id per catalog issue; SB0000 is the unclassified bucket.
std::string RuleId(int issue_id) { return StrPrintf("SB%04d", issue_id); }

// SARIF severity from the catalog triage: harmful -> error, benign -> note, else warning.
const char* SarifLevel(const ReportFinding& f) {
  if (f.harmful) {
    return "error";
  }
  return f.benign ? "note" : "warning";
}

}  // namespace

std::string RenderReportSarif(const CampaignReport& report) {
  std::string out;
  out += "{\n";
  out += "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [{\n";
  out += "    \"tool\": {\"driver\": {\n";
  out += "      \"name\": \"snowboard\",\n";
  out += "      \"informationUri\": \"https://github.com/snowboard/snowboard\",\n";
  out += "      \"rules\": [\n";
  // One rule per finding row (findings are already first-per-issue, catalog order).
  for (size_t i = 0; i < report.findings.size(); i++) {
    const ReportFinding& f = report.findings[i];
    StrAppendf(&out,
               "        {\"id\": \"%s\", \"name\": \"%s\", "
               "\"shortDescription\": {\"text\": \"%s\"}}%s\n",
               RuleId(f.issue_id).c_str(),
               JsonEscape(f.issue_id == 0 ? "Unclassified"
                                          : "Issue" + std::to_string(f.issue_id))
                   .c_str(),
               JsonEscape(f.summary).c_str(),
               i + 1 == report.findings.size() ? "" : ",");
  }
  out += "      ]\n";
  out += "    }},\n";
  out += "    \"results\": [\n";
  for (size_t i = 0; i < report.findings.size(); i++) {
    const ReportFinding& f = report.findings[i];
    out += "      {\n";
    StrAppendf(&out, "        \"ruleId\": \"%s\",\n", RuleId(f.issue_id).c_str());
    StrAppendf(&out, "        \"level\": \"%s\",\n", SarifLevel(f));
    StrAppendf(&out, "        \"message\": {\"text\": \"%s\"},\n",
               JsonEscape(f.evidence).c_str());
    // The seeded kernel is synthetic (no source files), so the finding is anchored to a
    // logical location: the subsystem the catalog attributes the issue to.
    StrAppendf(&out,
               "        \"locations\": [{\"logicalLocations\": "
               "[{\"name\": \"%s\", \"kind\": \"module\"}]}],\n",
               JsonEscape(f.subsystem).c_str());
    out += "        \"properties\": {\n";
    StrAppendf(&out, "          \"detector\": \"%s\",\n", JsonEscape(f.kind).c_str());
    StrAppendf(&out, "          \"issue_type\": \"%s\",\n", JsonEscape(f.type).c_str());
    StrAppendf(&out, "          \"trial\": %d,\n", f.trial);
    StrAppendf(&out, "          \"test_index\": %zu,\n", f.test_index);
    StrAppendf(&out, "          \"duplicate_input\": %s,\n",
               f.duplicate_input ? "true" : "false");
    StrAppendf(&out, "          \"replay_token\": \"%s\"\n",
               JsonEscape(f.replay_token).c_str());
    out += "        }\n";
    StrAppendf(&out, "      }%s\n", i + 1 == report.findings.size() ? "" : ",");
  }
  out += "    ]\n";
  out += "  }]\n";
  out += "}\n";
  return out;
}

bool WriteReportSarif(const CampaignReport& report, const std::string& path) {
  return AtomicWriteFile(path, RenderReportSarif(report));
}

}  // namespace snowboard
