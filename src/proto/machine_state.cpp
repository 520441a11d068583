#include "proto/machine_state.hpp"

#include <sstream>

namespace dtop {

const char* to_cstr(RcaPhase p) {
  switch (p) {
    case RcaPhase::kIdle: return "idle";
    case RcaPhase::kWaitOg: return "wait-og";
    case RcaPhase::kWaitOdt: return "wait-odt";
    case RcaPhase::kWaitToken: return "wait-token";
    case RcaPhase::kWaitUnmark: return "wait-unmark";
  }
  return "?";
}

const char* to_cstr(RootPhase p) {
  switch (p) {
    case RootPhase::kOpen: return "open";
    case RootPhase::kConvertGrow: return "convert-grow";
    case RootPhase::kAwaitDying: return "await-dying";
    case RootPhase::kConvertDying: return "convert-dying";
    case RootPhase::kAwaitUnmark: return "await-unmark";
  }
  return "?";
}

const char* to_cstr(BcaPhase p) {
  switch (p) {
    case BcaPhase::kIdle: return "idle";
    case BcaPhase::kWaitLoopback: return "wait-loopback";
    case BcaPhase::kConverting: return "converting";
    case BcaPhase::kWaitMarkDone: return "wait-mark-done";
    case BcaPhase::kWaitAck: return "wait-ack";
    case BcaPhase::kWaitBUnmark: return "wait-bunmark";
  }
  return "?";
}

const char* to_cstr(DfsPhase p) {
  switch (p) {
    case DfsPhase::kIdle: return "idle";
    case DfsPhase::kInRcaForward: return "in-rca-forward";
    case DfsPhase::kInRcaBack: return "in-rca-back";
    case DfsPhase::kWaitReturn: return "wait-return";
    case DfsPhase::kInBcaReturn: return "in-bca-return";
    case DfsPhase::kDone: return "done";
  }
  return "?";
}

std::string to_string(const GtdState& st) {
  std::ostringstream os;
  static const char* kGrowNames[] = {"ig", "og", "bg"};
  for (int i = 0; i < kNumSnakeKinds; ++i) {
    if (!st.grow[i].visited) continue;
    os << kGrowNames[i] << "-visited";
    if (st.grow[i].parent != kNoPort)
      os << "(p" << static_cast<int>(st.grow[i].parent) << ")";
    else
      os << "(creator)";
    os << " ";
  }
  if (st.loop.has1)
    os << "loop1[" << static_cast<int>(st.loop.pred1) << "->"
       << static_cast<int>(st.loop.succ1) << "] ";
  if (st.loop.has2)
    os << "loop2[" << static_cast<int>(st.loop.pred2) << "->"
       << static_cast<int>(st.loop.succ2) << "] ";
  if (st.bca_marks.has)
    os << "bca[" << static_cast<int>(st.bca_marks.pred) << "->"
       << static_cast<int>(st.bca_marks.succ)
       << (st.bca_marks.target ? ",target" : "") << "] ";
  if (st.rca_phase != RcaPhase::kIdle)
    os << "rca=" << to_cstr(st.rca_phase) << " ";
  if (st.bca_phase != BcaPhase::kIdle)
    os << "bca=" << to_cstr(st.bca_phase) << " ";
  if (st.dfs.phase != DfsPhase::kIdle)
    os << "dfs=" << to_cstr(st.dfs.phase) << " ";
  if (!st.outq.empty()) os << "outq=" << st.outq.size() << " ";
  std::string s = os.str();
  if (s.empty()) return "quiescent";
  if (s.back() == ' ') s.pop_back();
  return s;
}

}  // namespace dtop
