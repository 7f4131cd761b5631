//===- lbpbench/Gen.cpp - Seeded workload generators ----------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"

#include "romp/AsmText.h"
#include "romp/Runtime.h"
#include "support/SplitMix64.h"

#include <cstdio>

using namespace lbpbench;

uint64_t lbpbench::subSeed(uint64_t Seed, uint64_t Stream) {
  lbp::SplitMix64 G(Seed ^ (Stream * 0xd1342543de82ef95ULL));
  return G.next();
}

MatMulInputs lbpbench::makeMatMulInputs(uint64_t Seed) {
  constexpr unsigned H = MatMulHarts, K = MatMulHarts / 2;
  lbp::SplitMix64 G(subSeed(Seed, 0x4d4d));
  MatMulInputs In;
  In.X.resize(H * K);
  In.Y.resize(K * H);
  for (uint32_t &V : In.X)
    V = static_cast<uint32_t>(G.next());
  for (uint32_t &V : In.Y)
    V = static_cast<uint32_t>(G.next());
  In.Z.assign(H * H, 0);
  for (unsigned I = 0; I != H; ++I)
    for (unsigned J = 0; J != H; ++J) {
      uint32_t Acc = 0;
      for (unsigned L = 0; L != K; ++L)
        Acc += In.X[I * K + L] * In.Y[L * H + J];
      In.Z[I * H + J] = Acc;
    }
  return In;
}

uint32_t SyncSchedule::value(unsigned R, unsigned Index) const {
  const SyncRegion &Reg = Regions[R];
  uint32_t V = Index;
  for (unsigned K = 0; K != 3; ++K) {
    switch (Reg.Ops[K]) {
    case BodyOp::Xor:
      V ^= Reg.Imm[K];
      break;
    case BodyOp::Add:
      V += Reg.Imm[K];
      break;
    case BodyOp::Or:
      V |= Reg.Imm[K];
      break;
    case BodyOp::And:
      V &= Reg.Imm[K];
      break;
    }
  }
  return V;
}

std::vector<std::pair<uint32_t, uint32_t>> SyncSchedule::expected() const {
  std::vector<std::pair<uint32_t, uint32_t>> Out;
  for (unsigned R = 0; R != Regions.size(); ++R)
    for (unsigned T = 0; T != Regions[R].Team; ++T)
      Out.push_back({SyncOutBase + 4 * (R * SyncHarts + T), value(R, T)});
  return Out;
}

SyncSchedule lbpbench::makeSyncSchedule(uint64_t Seed) {
  lbp::SplitMix64 G(subSeed(Seed, 0x5342));
  SyncSchedule S;
  S.Regions.resize(SyncRegions);
  for (unsigned R = 0; R != SyncRegions; ++R)
    S.Regions[R].Team = 1 + (SyncHarts - 1) * R / (SyncRegions - 1);
  for (unsigned R = SyncRegions - 1; R != 0; --R)
    std::swap(S.Regions[R].Team, S.Regions[G.nextBelow(R + 1)].Team);
  for (SyncRegion &Reg : S.Regions)
    for (unsigned K = 0; K != 3; ++K) {
      Reg.Ops[K] = static_cast<BodyOp>(G.nextBelow(4));
      // Non-negative 12-bit immediates: one instruction each in the
      // assembly, and the same meaning in Det-C.
      Reg.Imm[K] = static_cast<uint32_t>(G.nextBelow(2048));
    }
  return S;
}

namespace {

const char *asmMnemonic(BodyOp Op) {
  switch (Op) {
  case BodyOp::Xor:
    return "xori";
  case BodyOp::Add:
    return "addi";
  case BodyOp::Or:
    return "ori";
  case BodyOp::And:
    return "andi";
  }
  return "";
}

const char *cOperator(BodyOp Op) {
  switch (Op) {
  case BodyOp::Xor:
    return "^";
  case BodyOp::Add:
    return "+";
  case BodyOp::Or:
    return "|";
  case BodyOp::And:
    return "&";
  }
  return "";
}

/// Label of region \p R's member body.
std::string regionLabel(unsigned R) {
  std::string L = "w";
  L += std::to_string(R);
  return L;
}

} // namespace

std::string lbpbench::emitSyncAsm(const SyncSchedule &S) {
  lbp::romp::AsmText Head;
  lbp::romp::emitMainPrologue(Head);
  for (unsigned R = 0; R != S.Regions.size(); ++R)
    lbp::romp::emitParallelCall(Head, regionLabel(R),
                                S.Regions[R].Team, "0", SyncHarts);
  lbp::romp::AsmText Tail;
  lbp::romp::emitMainEpilogue(Tail);
  lbp::romp::emitParallelStart(Tail);
  lbp::romp::AsmText Body;
  for (unsigned R = 0; R != S.Regions.size(); ++R) {
    const SyncRegion &Reg = S.Regions[R];
    uint32_t Out = SyncOutBase + 4 * R * SyncHarts;
    Body.label(regionLabel(R));
    Body.line("%s a4, a0, %u", asmMnemonic(Reg.Ops[0]), Reg.Imm[0]);
    Body.line("%s a4, a4, %u", asmMnemonic(Reg.Ops[1]), Reg.Imm[1]);
    Body.line("%s a4, a4, %u", asmMnemonic(Reg.Ops[2]), Reg.Imm[2]);
    Body.line("slli a5, a0, 2");
    // An explicit hi/lo pair keeps every body the same length (li would
    // drop the addi when the low bits are zero).
    Body.line("lui a6, %%hi(0x%x)", Out);
    Body.line("addi a6, a6, %%lo(0x%x)", Out);
    Body.line("add a5, a5, a6");
    Body.line("sw a4, 0(a5)");
    Body.line("p_syncm");
    Body.line("p_ret");
  }
  return Head.str() + Tail.str() + Body.str();
}

std::string lbpbench::emitSyncDetC(const SyncSchedule &S) {
  std::string Src;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "int out[%u] at 0x%x;\n\n",
                static_cast<unsigned>(S.Regions.size()) * SyncHarts,
                SyncOutBase);
  Src += Buf;
  for (unsigned R = 0; R != S.Regions.size(); ++R) {
    const SyncRegion &Reg = S.Regions[R];
    std::snprintf(Buf, sizeof(Buf),
                  "void w%u(int t) {\n  int v;\n  v = t %s %u;\n"
                  "  v = v %s %u;\n  v = v %s %u;\n  out[%u + t] = v;\n}\n\n",
                  R, cOperator(Reg.Ops[0]), Reg.Imm[0], cOperator(Reg.Ops[1]),
                  Reg.Imm[1], cOperator(Reg.Ops[2]), Reg.Imm[2],
                  R * SyncHarts);
    Src += Buf;
  }
  Src += "void main() {\n  int t;\n";
  for (unsigned R = 0; R != S.Regions.size(); ++R) {
    unsigned N = S.Regions[R].Team;
    std::snprintf(Buf, sizeof(Buf),
                  "  omp_set_num_threads(%u);\n  #pragma omp parallel for\n"
                  "  for (t = 0; t < %u; t++)\n    w%u(t);\n",
                  N, N, R);
    Src += Buf;
  }
  Src += "}\n";
  return Src;
}
