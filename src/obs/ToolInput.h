//===- obs/ToolInput.h - The program a tool runs --------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a tool's program argument into assembly text: a file (Det-C
/// source through the frontend, or assembly by its .s/.asm suffix; "-"
/// reads stdin) or a built-in workload. Compiled into lbp_prof,
/// lbp_triage and lbp_fleet, so the three tools accept the same programs
/// and run one program per workload name.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_OBS_TOOLINPUT_H
#define LBP_OBS_TOOLINPUT_H

#include <string>

namespace lbp {
namespace obs {

/// The built-in workloads, as the tools' usage texts list them. Each
/// runs on a bare machine: no workload here needs a device mapped.
constexpr const char *WorkloadNames = "phases|matmul|pipeline";

/// The assembly text of built-in workload \p Workload sized for \p Cores
/// cores when it is non-empty, else of the file \p Input. Returns "" and
/// sets \p Err on failure.
std::string loadAsmText(const std::string &Input,
                        const std::string &Workload, unsigned Cores,
                        std::string &Err);

} // namespace obs
} // namespace lbp

#endif // LBP_OBS_TOOLINPUT_H
