//===- fleet/Report.cpp - Canonical campaign report --------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The aggregate JSON report. Canonical by construction: fixed field
/// order, runs in queue order, integers and fixed-format hex only, no
/// wall-clock data anywhere — so a deterministic campaign (same specs,
/// same injection flags) emits byte-identical bytes on every
/// invocation, and CI can diff two repeat reports directly.
///
//===----------------------------------------------------------------------===//

#include "fleet/Fleet.h"

#include "support/StringUtils.h"

using namespace lbp;
using namespace lbp::fleet;

std::string lbp::fleet::campaignToJson(const CampaignResult &R) {
  return campaignToJson(R, std::string());
}

std::string lbp::fleet::campaignToJson(const CampaignResult &R,
                                       const std::string &ExtraJson) {
  std::string J = "{\n  \"schema\": \"lbp-fleet-report-v1\",\n";

  unsigned Counts[5] = {0, 0, 0, 0, 0};
  for (const RunResult &Run : R.Runs)
    ++Counts[static_cast<unsigned>(Run.V)];

  J += "  \"runs\": [\n";
  for (size_t I = 0; I != R.Runs.size(); ++I) {
    const RunResult &Run = R.Runs[I];
    J += "    {";
    J += formatString("\"name\": \"%s\", ", jsonEscape(Run.Name).c_str());
    J += formatString("\"verdict\": \"%s\", ", verdictName(Run.V));
    if (Run.V == Verdict::Incomplete) {
      // No completed attempt: the simulated outcome does not exist.
      J += "\"status\": null, \"cycles\": null, \"retired\": null, "
           "\"trace_hash\": null, \"engine\": null, ";
    } else {
      J += formatString("\"status\": \"%s\", ",
                        sim::runStatusName(Run.Status));
      J += formatString("\"cycles\": %llu, ",
                        static_cast<unsigned long long>(Run.Cycles));
      J += formatString("\"retired\": %llu, ",
                        static_cast<unsigned long long>(Run.Retired));
      J += formatString("\"trace_hash\": \"0x%016llx\", ",
                        static_cast<unsigned long long>(Run.TraceHash));
      J += formatString("\"engine\": \"%s\", ",
                        jsonEscape(Run.Engine).c_str());
    }
    J += formatString("\"message\": \"%s\", ",
                      jsonEscape(Run.Message).c_str());
    J += formatString("\"faults_fired\": %u, ", Run.FaultsFired);
    J += formatString("\"resumed_from_checkpoint\": %s, ",
                      Run.ResumedFromCheckpoint ? "true" : "false");
    J += "\"attempts\": [";
    for (size_t A = 0; A != Run.Attempts.size(); ++A) {
      if (A != 0)
        J += ", ";
      J += formatString("\"%s\"", attemptOutcomeName(Run.Attempts[A]));
    }
    J += "]}";
    J += I + 1 != R.Runs.size() ? ",\n" : "\n";
  }
  J += "  ],\n";

  J += formatString("  \"summary\": {\"total\": %zu, \"pass\": %u, "
                    "\"fault\": %u, \"livelock\": %u, \"deadline\": %u, "
                    "\"incomplete\": %u},\n",
                    R.Runs.size(), Counts[0], Counts[1], Counts[2],
                    Counts[3], Counts[4]);
  J += ExtraJson; // pre-rendered `"key": value,\n` members, if any
  J += formatString("  \"complete\": %s\n}\n",
                    R.Complete ? "true" : "false");
  return J;
}
