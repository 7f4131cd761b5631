//===- tests/WideForkJoin.h - A 64-core fork/join test program -------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The wide-machine program shared by the differential, golden and
// snapshot tests: back-to-back romp `parallel for` regions on a 64-core
// line (256 harts) whose teams spread from one hart to all 256. Each
// team is built one hart at a time along the core line and retired
// through the in-order ending-signal token, so most cores sleep most of
// the time: the shape on which the fast path's awake-core set and the
// sparse checkpoint memory section do their work.
//
//===----------------------------------------------------------------------===//

#ifndef LBP_TESTS_WIDEFORKJOIN_H
#define LBP_TESTS_WIDEFORKJOIN_H

#include "romp/AsmText.h"
#include "romp/Runtime.h"
#include "sim/Config.h"

#include <string>

namespace lbp {
namespace test {

/// Cores of the wide fork/join machine.
constexpr unsigned WideCores = 64;

/// Region R's members store their result at WideOutBase + 4 * (R * 256 +
/// member index).
constexpr uint32_t WideOutBase = 0x20000000u;

/// Team sizes of the regions, in program order.
constexpr unsigned WideTeams[] = {1, 256, 37, 128, 2, 200, 64, 255};
constexpr unsigned WideRegions = sizeof(WideTeams) / sizeof(WideTeams[0]);

/// Value member \p T of region \p R stores.
inline uint32_t wideValue(unsigned R, unsigned T) {
  return ((T ^ (17 * R + 5)) + 3 * R) | 1u;
}

/// Label of region \p R's member body.
inline std::string wideRegionLabel(unsigned R) {
  std::string L = "w";
  L += std::to_string(R);
  return L;
}

/// The program: every region's members compute wideValue() on their
/// index and store it; the host can check every word afterwards.
inline std::string wideForkJoinProgram() {
  constexpr unsigned Harts = 4 * WideCores;
  romp::AsmText Head;
  romp::emitMainPrologue(Head);
  for (unsigned R = 0; R != WideRegions; ++R)
    romp::emitParallelCall(Head, wideRegionLabel(R), WideTeams[R], "0",
                           Harts);
  romp::AsmText Tail;
  romp::emitMainEpilogue(Tail);
  romp::emitParallelStart(Tail);
  romp::AsmText Body;
  for (unsigned R = 0; R != WideRegions; ++R) {
    Body.label(wideRegionLabel(R));
    Body.line("xori a4, a0, %u", 17 * R + 5);
    Body.line("addi a4, a4, %u", 3 * R);
    Body.line("ori a4, a4, 1");
    Body.line("slli a5, a0, 2");
    Body.line("li a6, 0x%x", WideOutBase + 4 * R * Harts);
    Body.line("add a5, a5, a6");
    Body.line("sw a4, 0(a5)");
    Body.line("p_syncm");
    Body.line("p_ret");
  }
  return Head.str() + Tail.str() + Body.str();
}

/// The machine the program runs on.
inline sim::SimConfig wideConfig() { return sim::SimConfig::lbp(WideCores); }

} // namespace test
} // namespace lbp

#endif // LBP_TESTS_WIDEFORKJOIN_H
