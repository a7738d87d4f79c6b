#include "core/engine_factory.h"

#include "common/logging.h"
#include "core/baseline_engines.h"

namespace spt {

std::unique_ptr<SecurityEngine>
makeEngine(const EngineConfig &cfg)
{
    switch (cfg.scheme) {
      case ProtectionScheme::kUnsafeBaseline:
        return std::make_unique<UnsafeEngine>();
      case ProtectionScheme::kSecureBaseline:
        return std::make_unique<SecureBaselineEngine>();
      case ProtectionScheme::kStt:
        return std::make_unique<SttEngine>();
      case ProtectionScheme::kSpt:
        return std::make_unique<SptEngine>(cfg.spt);
    }
    SPT_PANIC("unknown protection scheme");
}

std::string
engineConfigName(const EngineConfig &cfg)
{
    switch (cfg.scheme) {
      case ProtectionScheme::kUnsafeBaseline:
        return "UnsafeBaseline";
      case ProtectionScheme::kSecureBaseline:
        return "SecureBaseline";
      case ProtectionScheme::kStt:
        return "STT";
      case ProtectionScheme::kSpt:
        break;
    }
    std::string method;
    switch (cfg.spt.method) {
      case UntaintMethod::kNone:     method = "None"; break;
      case UntaintMethod::kForward:  method = "Fwd"; break;
      case UntaintMethod::kBackward: method = "Bwd"; break;
      case UntaintMethod::kIdeal:    method = "Ideal"; break;
    }
    std::string shadow;
    switch (cfg.spt.shadow) {
      case ShadowKind::kNone:      shadow = "NoShadowL1"; break;
      case ShadowKind::kShadowL1:  shadow = "ShadowL1"; break;
      case ShadowKind::kShadowMem: shadow = "ShadowMem"; break;
    }
    std::string name = "SPT{" + method + "," + shadow + "}";
    if (cfg.spt.mutation == SptConfig::Mutation::kLeakyMemGate)
        name += "+LeakyMemGate";
    return name;
}

} // namespace spt
