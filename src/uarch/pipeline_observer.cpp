#include "uarch/pipeline_observer.h"

namespace spt {

const char *
delayKindName(DelayKind k)
{
    switch (k) {
      case DelayKind::kMemAccess: return "mem";
      case DelayKind::kBranchResolve: return "branch";
      case DelayKind::kMemOrderSquash: return "memorder";
    }
    return "?";
}

const char *
delayCauseName(DelayCause c)
{
    switch (c) {
      case DelayCause::kTaintedAddr: return "tainted-addr";
      case DelayCause::kTaintedBranch: return "tainted-branch";
      case DelayCause::kWaitBroadcast: return "wait-broadcast";
      case DelayCause::kWaitVp: return "wait-vp";
      case DelayCause::kMemOrderGate: return "memorder-gate";
      case DelayCause::kNumCauses: break;
    }
    return "?";
}

const char *
taintEventName(TaintEvent e)
{
    switch (e) {
      case TaintEvent::kTaintedAtRename: return "rename-taint";
      case TaintEvent::kVpDeclassify: return "vp-declassify";
      case TaintEvent::kForwardUntaint: return "forward";
      case TaintEvent::kBackwardUntaint: return "backward";
      case TaintEvent::kShadowUntaint: return "shadow-data";
      case TaintEvent::kStlUntaint: return "stl-forward";
    }
    return "?";
}

const char *
taintSlotName(uint8_t slot)
{
    switch (slot) {
      case 0: return "dest";
      case 1: return "src0";
      case 2: return "src1";
    }
    return "?";
}

} // namespace spt
